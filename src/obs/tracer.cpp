#include "src/obs/tracer.h"

namespace daric::obs {

void Tracer::add_sink(Sink* sink) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    sinks_.push_back(sink);
  }
  set_enabled(true);
}

void Tracer::emit(Event e) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  e.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  for (Sink* s : sinks_) s->on_event(e);
  ring_.push_back(std::move(e));
  if (ring_.size() > kRingCapacity) ring_.pop_front();
}

void Tracer::emit(std::int64_t round, EventKind kind, std::string engine,
                  std::string channel, std::string party, std::vector<Attr> attrs) {
  if (!enabled()) return;
  Event e;
  e.round = round;
  e.kind = kind;
  e.engine = std::move(engine);
  e.channel = std::move(channel);
  e.party = std::move(party);
  e.attrs = std::move(attrs);
  emit(std::move(e));
}

std::vector<Event> Tracer::ring_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

}  // namespace daric::obs
