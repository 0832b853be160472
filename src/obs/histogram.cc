#include "src/obs/histogram.h"

namespace flashsim {
namespace obs {

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
