#include "core/persistence.hpp"

#include "telemetry/metrics.hpp"

namespace pmware::core {

void write_place_records(std::ostream& out, const PlaceStore& store) {
  write_jsonl(out, store.records(),
              [](const auto& entry) { return to_json(entry.second); });
}

void count_torn_tail() {
  telemetry::registry()
      .counter("persistence_torn_tail_total", {},
               "JSONL reads that dropped a torn (unterminated, unparseable) "
               "final line and recovered the prefix")
      .inc();
}

}  // namespace pmware::core
