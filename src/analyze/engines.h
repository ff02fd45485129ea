// Aggregated template enumeration across all six channel engines: daric,
// lightning, eltoo, generalized, cerberus and fppw.
//
// The analyzer proves properties of *templates* — the fixed transaction
// shapes an engine can ever emit — so enumerating them from the same key
// schedule and builders each engine runs (daric/builders.h and every
// baseline's <engine>/scripts.h), over the verify::Options state schedule
// the model checker explores, is what ties the static proofs to the
// deployed protocol.
#pragma once

#include "src/analyze/auth.h"
#include "src/analyze/templates.h"
#include "src/channel/params.h"
#include "src/verify/model.h"

namespace daric::analyze {

/// Channel parameters matching the model's capacity and timing, suitable
/// for template enumeration (id defaults to "analyze").
channel::ChannelParams params_for_model(const verify::Options& model,
                                        std::string id = "analyze");

/// All templates of one engine by name (one of engine_names()); throws
/// std::invalid_argument on an unknown name. When `kb` is given, the
/// enumerator also registers every signing key and hash preimage its
/// templates depend on (the authorization analysis input).
std::vector<TxTemplate> engine_templates(const std::string& engine,
                                         const channel::ChannelParams& p,
                                         const verify::Options& model,
                                         KnowledgeBase* kb = nullptr);

/// Concatenation over all engines.
std::vector<TxTemplate> all_engine_templates(const channel::ChannelParams& p,
                                             const verify::Options& model);

/// The engine names `engine_templates` accepts.
const std::vector<std::string>& engine_names();

}  // namespace daric::analyze
