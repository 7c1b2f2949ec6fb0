#include "spans.hpp"

namespace pmware::perfbench {

std::size_t SpanRecorder::open(std::string name, std::string layer) {
  SpanRecord record;
  record.name = std::move(name);
  record.layer = std::move(layer);
  if (open_.empty()) {
    record.trace_id = next_trace_id_++;
  } else {
    record.parent = open_.back();
    record.trace_id = records_[record.parent].trace_id;
  }
  record.start_ns = now_ns();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  records_[index].end_ns = now_ns();
  open_.pop_back();  // ScopedSpan closes in stack order
}

std::map<std::string, double> SpanRecorder::self_ns_by_layer() const {
  // Spans nest strictly on one thread, so children never overlap and the
  // part of a parent they cover is the sum of their durations.
  std::vector<double> child_ns(records_.size(), 0.0);
  for (const SpanRecord& r : records_)
    if (r.parent != SpanRecord::kNoParent)
      child_ns[r.parent] += static_cast<double>(r.end_ns - r.start_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    out[r.layer] += static_cast<double>(r.end_ns - r.start_ns) - child_ns[i];
  }
  return out;
}

double SpanRecorder::root_ns() const {
  double total = 0;
  for (const SpanRecord& r : records_)
    if (r.parent == SpanRecord::kNoParent)
      total += static_cast<double>(r.end_ns - r.start_ns);
  return total;
}

}  // namespace pmware::perfbench
