#include "src/core/config.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "src/consistency/directory.h"
#include "src/util/assert.h"

namespace flashsim {
namespace {

// 0 when the system cannot say.
uint64_t PhysicalMemoryBytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_bytes = sysconf(_SC_PAGE_SIZE);
  return pages > 0 && page_bytes > 0
             ? static_cast<uint64_t>(pages) * static_cast<uint64_t>(page_bytes)
             : 0;
}

}  // namespace

uint64_t SimConfig::MetadataBytes() const {
  // Naive and lookaside keep one LruBlockCache per tier; unified keeps one
  // over both.
  const uint64_t per_host = arch == Architecture::kUnified
                                ? LruBlockCache::MetadataBytes(ram_blocks() + flash_blocks())
                                : LruBlockCache::MetadataBytes(ram_blocks()) +
                                      LruBlockCache::MetadataBytes(flash_blocks());
  const uint64_t directory = num_hosts > 1 ? Directory::TableBytes(fleet_cache_blocks()) : 0;
  return per_host * static_cast<uint64_t>(num_hosts) + directory;
}

std::vector<std::string> SimConfig::Violations() const {
  std::vector<std::string> out;
  const auto rule = [&out](bool holds, const std::string& message) {
    if (!holds) {
      out.push_back(message);
    }
  };
  rule(block_bytes > 0, "block size must be positive");
  rule(num_hosts >= 1 && num_hosts <= Directory::kMaxHosts,
       "hosts must be in [1, " + std::to_string(Directory::kMaxHosts) + "], got " +
           std::to_string(num_hosts));
  // Trace records carry a 16-bit thread id.
  rule(threads_per_host >= 1 && threads_per_host <= UINT16_MAX,
       "threads per host must be in [1, 65535], got " + std::to_string(threads_per_host));
  // The shard router maps block hashes onto at most kMaxShards filers.
  rule(num_filers >= 1 && num_filers <= ShardRouter::kMaxShards,
       "filers must be in [1, " + std::to_string(ShardRouter::kMaxShards) + "], got " +
           std::to_string(num_filers));
  if (block_bytes > 0) {
    // The unified stack keeps both tiers on one chain, the tightest case.
    rule(ram_blocks() + flash_blocks() <= LruBlockCache::kMaxCapacity,
         "RAM + flash per host must be at most 2^31 blocks, got " +
             std::to_string(ram_blocks() + flash_blocks()));
    if (out.empty()) {
      // Refuse up front what would otherwise die in an allocation mid-setup.
      const uint64_t metadata = MetadataBytes();
      const uint64_t physical = PhysicalMemoryBytes();
      rule(physical == 0 || metadata <= physical,
           "estimated cache metadata of " + FormatSize(metadata) + " (" +
               std::to_string(num_hosts) + " hosts x " +
               std::to_string(ram_blocks() + flash_blocks()) +
               " cached blocks, plus the directory) exceeds physical memory of " +
               FormatSize(physical));
    }
  }
  // The naive stack's RAM→flash writeback requires RAM ⊆ flash, which a
  // DRAM→flash admission filter deliberately breaks.
  rule(arch != Architecture::kNaive || admission == AdmissionPolicy::kAll,
       "the naive architecture requires admission=all (a flash admission filter breaks "
       "RAM ⊆ flash)");
  rule(timing.ram_access_ns >= 0, "RAM access time must not be negative");
  rule(timing.flash_read_ns >= 0 && timing.flash_write_ns >= 0,
       "flash read and write times must not be negative");
  rule(timing.filer_fast_read_rate >= 0.0 && timing.filer_fast_read_rate <= 1.0,
       "filer fast-read rate must be in [0, 1]");
  rule(timing.filer_concurrency >= 1, "filer concurrency must be at least 1");
  // An infinite sigma makes the lognormal factor NaN, which the device
  // would turn into a negative service time.
  rule(std::isfinite(timing.flash_noise_sigma) && timing.flash_noise_sigma >= 0.0,
       "flash noise sigma must be finite and at least 0, got " +
           FormatNumber(timing.flash_noise_sigma));
  rule(timing.coherence_ctrl_ns >= 0, "coherence control-message time must not be negative");
  rule(coherence != CoherenceModel::kLease || timing.lease_ns > 0,
       "coherence=lease requires a positive lease time");
  if (timing.use_ftl) {
    // Ftl's constructor would abort on these; a NaN wear weight would make
    // every victim score NaN and GC pick blocks by index alone.
    rule(std::isfinite(timing.ftl_overprovision) && timing.ftl_overprovision > 0.0,
         "FTL overprovision must be finite and above 0, got " +
             FormatNumber(timing.ftl_overprovision));
    rule(timing.ftl_pages_per_block > 0, "FTL pages per block must be at least 1");
    rule(std::isfinite(timing.ftl_wear_weight) && timing.ftl_wear_weight >= 0.0,
         "FTL wear weight must be finite and at least 0, got " +
             FormatNumber(timing.ftl_wear_weight));
    rule(timing.ftl_page_read_ns >= 0 && timing.ftl_page_program_ns >= 0 &&
             timing.ftl_block_erase_ns >= 0,
         "FTL page read, page program and block erase times must not be negative");
  }
  return out;
}

void SimConfig::Validate() const {
  const std::vector<std::string> violations = Violations();
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "invalid configuration: %s\n", violation.c_str());
  }
  FLASHSIM_CHECK(violations.empty());
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
  return out;
}

}  // namespace flashsim
