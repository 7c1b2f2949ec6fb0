// JSONL persistence: one JSON document per line, append-friendly and
// stream-based so it is storage-agnostic. It serves the raw logs a
// deployment ships for offline analysis (GSM observations, visits, place
// records, day profiles); a PMS checkpoint is one digested JSON document
// instead (PmwareMobileService::save). Record shapes come from core/codec;
// this layer only frames them as lines.
#pragma once

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/inference_engine.hpp"
#include "core/place_store.hpp"

namespace pmware::core {

/// Thrown by read_jsonl on a malformed line; carries the 1-based line number.
class PersistenceError : public std::runtime_error {
 public:
  PersistenceError(std::size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Writes one line per record: `encode(record)`, by default the record's
/// codec encoding.
template <typename Range, typename Encode>
void write_jsonl(std::ostream& out, const Range& records, Encode encode) {
  for (const auto& record : records) out << encode(record).dump() << '\n';
}
template <typename Range>
void write_jsonl(std::ostream& out, const Range& records) {
  write_jsonl(out, records, [](const auto& record) { return to_json(record); });
}

/// Place records in uid order.
void write_place_records(std::ostream& out, const PlaceStore& store);

/// Counts one recovered torn tail in persistence_torn_tail_total.
void count_torn_tail();

/// Decodes every non-empty line with `decode` (a codec decoder such as
/// cell_observation_from_json). A line that fails to decode — malformed
/// JSON, or a value the codec rejects such as an inverted visit window —
/// throws PersistenceError with its line number: that is bit-rot, and
/// skipping it would hide data loss. The exception is a torn append: a
/// FINAL line the writer died in the middle of (no trailing newline) is
/// dropped and counted, and the parsed prefix is returned.
template <typename Decode>
auto read_jsonl(std::istream& in, Decode decode) {
  std::vector<decltype(decode(Json()))> records;
  std::string line;
  std::size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    // getline sets eofbit exactly when this line ended at end-of-stream
    // with no trailing '\n' — the torn-append signature.
    const bool unterminated = in.eof();
    if (line.empty()) continue;
    try {
      records.push_back(decode(Json::parse(line)));
    } catch (const JsonError& error) {
      if (!unterminated) throw PersistenceError(number, error.what());
      count_torn_tail();
      break;
    }
  }
  return records;
}

}  // namespace pmware::core
