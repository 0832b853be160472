#include "src/obs/histogram.h"

#include <cstdio>

namespace flashsim {
namespace obs {

void Histogram::Merge(const Histogram& other) {
  // count() flushes both sides, so the merge below sees drained state.
  if (other.count() == 0) {
    return;
  }
  if (count() == 0) {
    *this = other;
    return;
  }
  if (other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
  sum_ += other.sum_;
  buckets_.Merge(other.buckets_);
}

std::string Histogram::Serialize() const {
  char head[96];
  std::snprintf(head, sizeof(head), "%llu %lld %lld %lld",
                static_cast<unsigned long long>(count()), static_cast<long long>(sum()),
                static_cast<long long>(min()), static_cast<long long>(max()));
  std::string out = head;
  out += ' ';
  const auto& raw = buckets_.buckets();
  bool first = true;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == 0) {
      continue;
    }
    char entry[48];
    std::snprintf(entry, sizeof(entry), "%s%zu:%llu", first ? "" : ",", i,
                  static_cast<unsigned long long>(raw[i]));
    out += entry;
    first = false;
  }
  return out;
}

JsonValue Histogram::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("count", count());
  json.Set("sum_ns", sum());
  json.Set("min_ns", min());
  json.Set("max_ns", max());
  json.Set("mean_us", mean() / 1000.0);
  json.Set("p50_us", static_cast<double>(p50()) / 1000.0);
  json.Set("p90_us", static_cast<double>(p90()) / 1000.0);
  json.Set("p99_us", static_cast<double>(p99()) / 1000.0);
  json.Set("p999_us", static_cast<double>(p999()) / 1000.0);
  JsonValue buckets = JsonValue::Array();
  const auto& raw = buckets_.buckets();
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != 0) {
      JsonValue entry = JsonValue::Array();
      entry.Append(static_cast<int64_t>(i));
      entry.Append(raw[i]);
      buckets.Append(std::move(entry));
    }
  }
  json.Set("buckets", std::move(buckets));
  return json;
}

}  // namespace obs
}  // namespace flashsim
