#include "src/analyze/templates.h"

#include "src/crypto/sha256.h"
#include "src/script/standard.h"

namespace daric::analyze {

tx::OutPoint template_outpoint(std::string_view label, std::uint32_t vout) {
  const Hash256 h = crypto::Sha256::tagged(
      "daric/analyze/outpoint",
      {reinterpret_cast<const Byte*>(label.data()), label.size()});
  return {h, vout};
}

channel::StateVec model_state(const verify::Options& model, Amount capacity, std::uint32_t j) {
  const Amount to_a = model.to_a(static_cast<int>(j));
  return {to_a, capacity - to_a, {}};
}

TemplateInput funding_input(const script::Script& fund_script, Amount value, PrincipalSet who,
                            std::int32_t from, script::SighashFlag flag) {
  TemplateInput in;
  in.spent = {value, tx::Condition::p2wsh(fund_script)};
  in.witness_script = fund_script;
  in.witness = {WitnessElem::empty(), WitnessElem::sig(flag), WitnessElem::sig(flag)};
  in.rebindable = script::is_anyprevout(flag);
  in.intended = who;
  in.presigned = Presign{who, from};
  return in;
}

TxTemplate coop_close_template(std::string engine, tx::Transaction close,
                               const script::Script& fund_script, Amount value,
                               std::int32_t latest, std::string name) {
  return {std::move(engine), std::move(name), std::move(close),
          {funding_input(fund_script, value, kPQ, latest)}};
}

}  // namespace daric::analyze
