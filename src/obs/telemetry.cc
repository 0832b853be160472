#include "src/obs/telemetry.h"

#include "src/util/assert.h"

namespace flashsim {
namespace obs {

Histogram* Telemetry::RegisterHistogram(std::string name) {
  histograms_.emplace_back(std::move(name), Histogram());
  return &histograms_.back().second;
}

DeviceProbe* Telemetry::RegisterProbe(std::string histogram_name, int pid,
                                      std::string track_name, int max_lanes) {
  Histogram* histogram = RegisterHistogram(std::move(histogram_name));
  int lane_group = -1;
  int name = -1;
  if (trace_ != nullptr) {
    name = trace_->RegisterName(track_name);
    lane_group = trace_->RegisterLaneGroup(pid, std::move(track_name), max_lanes);
  }
  probes_.emplace_back(histogram, trace_.get(), lane_group, name);
  return &probes_.back();
}

void Telemetry::RecordSample(const Sample& sample) {
  FLASHSIM_CHECK(sampler_ != nullptr);
  sampler_->Add(sample);
  if (trace_ == nullptr) {
    return;
  }
  if (counter_track_ < 0) {
    const int pid = trace_->RegisterProcess("metrics");
    counter_track_ = trace_->RegisterTrack(pid, "sampled");
    name_dirty_ = trace_->RegisterName("dirty_resident");
    name_writeback_ = trace_->RegisterName("writeback_in_flight");
    name_queue_ = trace_->RegisterName("event_queue_depth");
    name_ram_rate_ = trace_->RegisterName("ram_hit_pct");
    name_flash_rate_ = trace_->RegisterName("flash_hit_pct");
  }
  trace_->AddCounter(counter_track_, name_dirty_, sample.t,
                     static_cast<double>(sample.dirty_resident));
  trace_->AddCounter(counter_track_, name_writeback_, sample.t,
                     static_cast<double>(sample.writeback_in_flight));
  trace_->AddCounter(counter_track_, name_queue_, sample.t,
                     static_cast<double>(sample.queue_depth));
  const uint64_t ram = sample.ram_hits - last_sample_.ram_hits;
  const uint64_t flash = sample.flash_hits - last_sample_.flash_hits;
  const uint64_t reads = ram + flash + (sample.filer_reads - last_sample_.filer_reads);
  if (reads > 0) {
    trace_->AddCounter(counter_track_, name_ram_rate_, sample.t,
                       100.0 * static_cast<double>(ram) / static_cast<double>(reads));
    trace_->AddCounter(counter_track_, name_flash_rate_, sample.t,
                       100.0 * static_cast<double>(flash) / static_cast<double>(reads));
  }
  last_sample_ = sample;
}

JsonValue Telemetry::StatsJson() const {
  JsonValue json = JsonValue::Object();
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : histograms_) {
    histograms.Set(name, histogram.ToJson());
  }
  json.Set("histograms", std::move(histograms));
  if (sampler_ != nullptr) {
    json.Set("sample_stride_ms", static_cast<double>(sampler_->stride_ns()) / 1e6);
    json.Set("samples", sampler_->ToJson());
  }
  if (trace_ != nullptr) {
    JsonValue spans = JsonValue::Object();
    spans.Set("recorded", trace_->spans_recorded());
    spans.Set("dropped", trace_->spans_dropped());
    json.Set("spans", std::move(spans));
  }
  return json;
}

void Telemetry::WriteChromeTrace(std::ostream& os) const {
  FLASHSIM_CHECK(trace_ != nullptr);
  trace_->WriteJson(os);
}

}  // namespace obs
}  // namespace flashsim
