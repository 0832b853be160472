// check_cli: differential-oracle driver for the cache stacks.
//
// Runs every (architecture x RAM-policy x flash-policy) combination — or a
// single configuration selected by flags — of the real stacks against the
// reference oracle over a seeded random schedule, and exits nonzero on the
// first divergence. Divergences are minimized and dumped as replayable
// .diverge files; --replay=FILE re-runs one.
//
//   check_cli                          # full 3 x 7 x 7 x 5-policy grid, 10k ops each
//   check_cli --arch=naive --ram_policy=p1 --flash_policy=n --ops=100000
//   check_cli --policy=slru            # one replacement policy across the grid
//   check_cli --admission=flashield    # ghost-LRU flash admission (lookaside/unified)
//   check_cli --hosts=4 --seed=7       # multi-host invalidation checking
//   check_cli --coherence=directory --hosts=4          # modeled protocol vs longhand oracle
//   check_cli --replay=out.diverge     # re-run a dumped divergence
//   check_cli --policy=slru --inject_replacement_bug   # oracle must catch the seam
//   check_cli --coherence=lease --hosts=4 --inject_coherence_bug  # seam must diverge
//
// New stack or policy code must keep this clean (see CONTRIBUTING.md).
#include <cstdio>
#include <string>
#include <vector>

#include "src/check/differential.h"
#include "src/harness/flags.h"

namespace flashsim {
namespace {

int Main(int argc, char** argv) {
  DiffConfig base;
  base.num_ops = 10000;
  std::string arch_name;
  std::string ram_policy_name;
  std::string flash_policy_name;
  std::string replacement_name;
  std::string admission_name;
  std::string replay_path;
  std::string diverge_dir = "diverge";
  bool inject_bug = false;
  bool inject_replacement_bug = false;
  bool inject_admission_bug = false;
  bool inject_coherence_bug = false;

  FlagParser parser;
  parser.AddCustom("coherence", "perfect|directory|lease",
                   "coherence protocol on the rig's network path",
                   [&](const std::string& v) {
                     const auto model = ParseCoherenceModel(v);
                     if (!model.has_value()) {
                       return false;
                     }
                     base.coherence = *model;
                     return true;
                   });
  parser.AddCustom("arch", "naive|lookaside|unified", "run only this architecture",
                   [&](const std::string& v) {
                     arch_name = v;
                     return ParseArchitecture(v).has_value();
                   });
  parser.AddCustom("ram_policy", "s|a|p1|p5|p15|p30|n", "run only this RAM policy",
                   [&](const std::string& v) {
                     ram_policy_name = v;
                     return ParsePolicy(v).has_value();
                   });
  parser.AddCustom("flash_policy", "s|a|p1|p5|p15|p30|n", "run only this flash policy",
                   [&](const std::string& v) {
                     flash_policy_name = v;
                     return ParsePolicy(v).has_value();
                   });
  parser.AddCustom("policy", "lru|fifo|clock|slru|lruk", "run only this replacement policy",
                   [&](const std::string& v) {
                     replacement_name = v;
                     return ParseReplacementPolicy(v).has_value();
                   });
  parser.AddCustom("admission", "all|flashield", "flash admission policy (skips naive)",
                   [&](const std::string& v) {
                     admission_name = v;
                     return ParseAdmissionPolicy(v).has_value();
                   });
  parser.AddUint64("ops", "operations per configuration", &base.num_ops);
  parser.AddUint64("seed", "schedule seed", &base.seed);
  parser.AddInt("hosts", "number of hosts (multi-host invalidation)", &base.num_hosts);
  parser.AddUint64("ram_blocks", "RAM cache capacity in blocks", &base.ram_blocks);
  parser.AddUint64("flash_blocks", "flash cache capacity in blocks", &base.flash_blocks);
  parser.AddUint64("keys", "block key space size", &base.key_space);
  parser.AddString("diverge_dir", "directory for .diverge dumps", &diverge_dir);
  parser.AddString("replay", "re-run a dumped .diverge file and exit", &replay_path);
  parser.AddBool("inject_bug", "flip the test-only subset-eviction bug (must diverge)",
                 &inject_bug);
  parser.AddBool("inject_replacement_bug",
                 "arm the replacement policy's test-only bug (slru/lruk; must diverge)",
                 &inject_replacement_bug);
  parser.AddBool("inject_admission_bug",
                 "invert the flash admission filter (needs --admission=flashield; must diverge)",
                 &inject_admission_bug);
  parser.AddBool("inject_coherence_bug",
                 "arm the coherence protocol's test-only bug (directory skips ack waits, "
                 "lease forgets breaks; needs --coherence; must diverge)",
                 &inject_coherence_bug);
  parser.ParseOrExit(argc, argv);

  if (inject_coherence_bug && base.coherence == CoherenceModel::kPerfect) {
    std::fprintf(stderr,
                 "--inject_coherence_bug requires --coherence=directory|lease "
                 "(the perfect model has no protocol to break)\n");
    return 2;
  }

  if (!replay_path.empty()) {
    const DiffResult result = ReplayDivergeFile(replay_path);
    if (result.ok) {
      std::printf("replay %s: no divergence (%llu ops)\n", replay_path.c_str(),
                  static_cast<unsigned long long>(result.ops_executed));
      return 0;
    }
    std::printf("replay %s: DIVERGED at %s\n", replay_path.c_str(), result.message.c_str());
    return 1;
  }

  base.inject_subset_eviction_bug = inject_bug;
  base.inject_replacement_bug = inject_replacement_bug;
  base.inject_admission_bug = inject_admission_bug;
  base.inject_coherence_bug = inject_coherence_bug;
  if (!admission_name.empty()) {
    base.admission = *ParseAdmissionPolicy(admission_name);
  }
  const bool expect_divergence =
      inject_bug || inject_replacement_bug || inject_admission_bug || inject_coherence_bug;
  const std::vector<Architecture> archs =
      arch_name.empty() ? std::vector<Architecture>(kAllArchitectures.begin(),
                                                    kAllArchitectures.end())
                        : std::vector<Architecture>{*ParseArchitecture(arch_name)};
  const std::vector<WritebackPolicy> ram_policies =
      ram_policy_name.empty()
          ? std::vector<WritebackPolicy>(kAllWritebackPolicies.begin(),
                                         kAllWritebackPolicies.end())
          : std::vector<WritebackPolicy>{*ParsePolicy(ram_policy_name)};
  const std::vector<WritebackPolicy> flash_policies =
      flash_policy_name.empty()
          ? std::vector<WritebackPolicy>(kAllWritebackPolicies.begin(),
                                         kAllWritebackPolicies.end())
          : std::vector<WritebackPolicy>{*ParsePolicy(flash_policy_name)};
  const std::vector<ReplacementPolicy> replacements =
      replacement_name.empty()
          ? std::vector<ReplacementPolicy>(kAllReplacementPolicies.begin(),
                                           kAllReplacementPolicies.end())
          : std::vector<ReplacementPolicy>{*ParseReplacementPolicy(replacement_name)};

  std::vector<DiffConfig> configs;
  for (Architecture arch : archs) {
    // The naive stack keeps RAM a strict subset of flash and cannot host an
    // admission filter; a sweep over every architecture skips it, while an
    // explicit --arch=naive is reported below.
    if (arch_name.empty() && arch == Architecture::kNaive &&
        base.admission != AdmissionPolicy::kAll) {
      continue;
    }
    for (WritebackPolicy ram_policy : ram_policies) {
      for (WritebackPolicy flash_policy : flash_policies) {
        for (ReplacementPolicy replacement : replacements) {
          DiffConfig config = base;
          config.arch = arch;
          config.ram_policy = ram_policy;
          config.flash_policy = flash_policy;
          config.replacement = replacement;
          configs.push_back(config);
        }
      }
    }
  }
  // Bad flags are a usage error (exit 2), never an abort inside the rig.
  for (const DiffConfig& config : configs) {
    const std::vector<std::string> violations = config.Violations();
    for (const std::string& violation : violations) {
      std::fprintf(stderr, "check_cli: %s\n", violation.c_str());
    }
    if (!violations.empty()) {
      return 2;
    }
  }

  int divergences = 0;
  for (const DiffConfig& config : configs) {
    const DiffResult result = RunDifferential(config, diverge_dir);
    if (!result.ok) {
      ++divergences;
      std::printf("DIVERGED [%s]: %s\n", config.Summary().c_str(), result.message.c_str());
    }
  }
  if (divergences == 0) {
    std::printf("ok: %zu configurations, %llu ops each, zero divergences\n", configs.size(),
                static_cast<unsigned long long>(base.num_ops));
    return expect_divergence ? 1 : 0;  // an injected bug that nothing caught is a failure
  }
  std::printf("%d/%zu configurations diverged\n", divergences, configs.size());
  return expect_divergence ? 0 : 1;  // with an injected bug, divergence is expected
}

}  // namespace
}  // namespace flashsim

int main(int argc, char** argv) { return flashsim::Main(argc, argv); }
