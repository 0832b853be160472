#include "src/core/config.h"

#include <cstdio>

#include "src/consistency/directory.h"
#include "src/util/assert.h"

namespace flashsim {

const char* InvalidationTrafficName(InvalidationTraffic model) {
  switch (model) {
    case InvalidationTraffic::kNone:
      return "none";
    case InvalidationTraffic::kAsync:
      return "async";
    case InvalidationTraffic::kBlocking:
      return "blocking";
  }
  return "?";
}

void SimConfig::Validate() const {
  FLASHSIM_CHECK(block_bytes > 0);
  FLASHSIM_CHECK(num_hosts >= 1 && num_hosts <= Directory::kMaxHosts);
  FLASHSIM_CHECK(threads_per_host >= 1);
  // The shard router maps block hashes onto at most kMaxShards filers;
  // larger counts are not representable under the shard map.
  FLASHSIM_CHECK(num_filers >= 1 && num_filers <= ShardRouter::kMaxShards);
  // The naive stack's RAM→flash writeback requires RAM ⊆ flash, which a
  // DRAM→flash admission filter deliberately breaks.
  FLASHSIM_CHECK(arch != Architecture::kNaive || admission == AdmissionPolicy::kAll);
  FLASHSIM_CHECK(timing.ram_access_ns >= 0);
  FLASHSIM_CHECK(timing.flash_read_ns >= 0 && timing.flash_write_ns >= 0);
  FLASHSIM_CHECK(timing.filer_fast_read_rate >= 0.0 && timing.filer_fast_read_rate <= 1.0);
  FLASHSIM_CHECK(timing.filer_concurrency >= 1);
  // Modeled protocols charge their own control traffic; the legacy
  // --invalidation packet model on top would double-charge every write.
  FLASHSIM_CHECK(coherence == CoherenceModel::kPerfect ||
                 invalidation_traffic == InvalidationTraffic::kNone);
  FLASHSIM_CHECK(timing.coherence_ctrl_ns >= 0);
  FLASHSIM_CHECK(coherence != CoherenceModel::kLease || timing.lease_ns > 0);
}

std::string SimConfig::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s ram=%s flash=%s hosts=%d threads=%d ram_policy=%s "
                "flash_policy=%s%s",
                ArchitectureName(arch), FormatSize(ram_bytes).c_str(),
                FormatSize(flash_bytes).c_str(), num_hosts, threads_per_host,
                PolicyName(ram_policy), PolicyName(flash_policy),
                timing.persistent_flash ? " persistent" : "");
  std::string out = buf;
  if (num_filers > 1) {
    std::snprintf(buf, sizeof(buf), " filers=%d(%s)", num_filers,
                  ShardStrategyName(shard_strategy));
    out += buf;
  }
  if (replacement != ReplacementPolicy::kLru) {
    std::snprintf(buf, sizeof(buf), " policy=%s", ReplacementPolicyName(replacement));
    out += buf;
  }
  if (admission != AdmissionPolicy::kAll) {
    std::snprintf(buf, sizeof(buf), " admission=%s", AdmissionPolicyName(admission));
    out += buf;
  }
  if (coherence != CoherenceModel::kPerfect) {
    std::snprintf(buf, sizeof(buf), " coherence=%s", CoherenceModelName(coherence));
    out += buf;
  }
  if (!read_fast_path) {
    out += " nofastpath";
  }
  return out;
}

}  // namespace flashsim
