// Differential test of the page-mapped FTL against its longhand reference
// (OracleFtl, src/check/oracle.h): the same random write/TRIM stream drives
// both, and every write's FtlCost, every GC victim, every block's erase
// count, the relocations and the write amplification must agree. The
// oracle picks victims with the full scan the FTL's victim index replaced,
// so agreement here is the index's same-victim contract (DESIGN.md §16).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/check/oracle.h"
#include "src/ftl/ftl.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

struct GridPoint {
  uint32_t pages_per_block;
  double overprovision;
  double wear_weight;

  std::string Name() const {
    return "ppb=" + std::to_string(pages_per_block) + " op=" + std::to_string(overprovision) +
           " wear=" + std::to_string(wear_weight);
  }
};

std::vector<GridPoint> Grid() {
  std::vector<GridPoint> grid;
  for (const uint32_t ppb : {4u, 16u, 64u}) {
    for (const double overprovision : {0.07, 0.28}) {
      for (const double wear : {0.0, 1.0, 4.0, 16.0}) {
        grid.push_back({ppb, overprovision, wear});
      }
    }
  }
  return grid;
}

FtlParams ParamsFor(const GridPoint& point) {
  FtlParams params;
  params.logical_pages = 32ULL * point.pages_per_block;  // ~40 erase blocks
  params.pages_per_block = point.pages_per_block;
  params.overprovision = point.overprovision;
  params.wear_weight = point.wear_weight;
  return params;
}

std::string Join(const std::vector<uint32_t>& blocks) {
  std::string out = "[";
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0) {
      out += ' ';
    }
    out += std::to_string(blocks[i]);
  }
  out += ']';
  return out;
}

struct Outcome {
  std::string disagreement;  // empty when the two agreed on every op
  uint64_t erases = 0;
  uint64_t relocations = 0;
};

// Drives `ops` random operations through Ftl and OracleFtl: 80% writes,
// skewed so 70% land on the hottest eighth of the pages (victim scores
// spread, and wear builds up unevenly), and 20% TRIMs.
Outcome Compare(const FtlParams& params, uint64_t seed, int ops, bool break_tie_break) {
  Ftl real(params);
  OracleFtl oracle(params);
  if (break_tie_break) {
    real.test_only_break_victim_tie_break();
  }
  Outcome out;
  if (real.physical_blocks() != oracle.physical_blocks()) {
    out.disagreement = "block counts differ";
    return out;
  }
  const uint32_t blocks = static_cast<uint32_t>(real.physical_blocks());
  std::vector<uint64_t> seen_erases(blocks, 0);
  Rng rng(seed);
  const uint64_t hot = params.logical_pages / 8;
  for (int i = 0; i < ops && out.disagreement.empty(); ++i) {
    const uint64_t lpn =
        rng.NextBool(0.7) ? rng.NextBounded(hot) : rng.NextBounded(params.logical_pages);
    const std::string at = "op " + std::to_string(i) + ": ";
    if (rng.NextBool(0.2)) {
      real.Trim(lpn);
      oracle.Trim(lpn);
      continue;
    }
    const FtlCost got = real.Write(lpn);
    const FtlCost want = oracle.Write(lpn);
    if (got.page_reads != want.page_reads || got.page_programs != want.page_programs ||
        got.block_erases != want.block_erases) {
      out.disagreement = at + "cost differs (reads/programs/erases " +
                         std::to_string(got.page_reads) + "/" +
                         std::to_string(got.page_programs) + "/" +
                         std::to_string(got.block_erases) + " vs oracle " +
                         std::to_string(want.page_reads) + "/" +
                         std::to_string(want.page_programs) + "/" +
                         std::to_string(want.block_erases) + ")";
      break;
    }
    // The real FTL's victims are the blocks whose erase count rose.
    std::vector<uint32_t> victims;
    for (uint32_t b = 0; b < blocks; ++b) {
      for (; seen_erases[b] < real.erase_count(b); ++seen_erases[b]) {
        victims.push_back(b);
      }
    }
    std::vector<uint32_t> expected = oracle.last_victims();
    std::sort(expected.begin(), expected.end());
    if (victims != expected) {
      out.disagreement = at + "victims differ (" + Join(victims) + " vs oracle " +
                         Join(expected) + ")";
      break;
    }
    if (real.total_erases() != oracle.total_erases() ||
        real.relocated_pages() != oracle.relocated_pages() ||
        real.total_programs() != oracle.total_programs() ||
        real.host_writes() != oracle.host_writes() ||
        real.write_amplification() != oracle.write_amplification()) {
      out.disagreement = at + "accounting differs";
      break;
    }
    if (i % 1024 == 0) {
      real.CheckInvariants();
    }
  }
  for (uint32_t b = 0; b < blocks && out.disagreement.empty(); ++b) {
    if (real.erase_count(b) != oracle.erase_count(b)) {
      out.disagreement = "erase count of block " + std::to_string(b) + " differs";
    }
  }
  real.CheckInvariants();
  out.erases = oracle.total_erases();
  out.relocations = oracle.relocated_pages();
  return out;
}

constexpr int kOps = 20000;

TEST(FtlOracle, AgreesOnEveryOpAcrossTheGrid) {
  uint64_t seed = 1;
  for (const GridPoint& point : Grid()) {
    const Outcome outcome = Compare(ParamsFor(point), seed++, kOps, /*break_tie_break=*/false);
    EXPECT_EQ(outcome.disagreement, "") << point.Name();
    // The comparison only means something if GC ran and relocated pages.
    EXPECT_GT(outcome.erases, 100u) << point.Name();
    EXPECT_GT(outcome.relocations, 0u) << point.Name();
  }
}

// The injected seam gives score ties to the highest block index. Scores
// are integers for these wear weights, so ties are common and the oracle's
// lowest-index rule must tell the difference at every grid point.
TEST(FtlOracle, CatchesTheTieBreakSeam) {
  uint64_t seed = 1;
  for (const GridPoint& point : Grid()) {
    const Outcome outcome = Compare(ParamsFor(point), seed++, kOps, /*break_tie_break=*/true);
    EXPECT_NE(outcome.disagreement, "") << point.Name() << ": the seam went unnoticed";
  }
}

// A hand-traced run. 8 logical pages, 4 pages per block, overprovision
// 0.5: ceil(12 / 4) + 2 (watermark) + 2 = 7 blocks, opened 0, 1, 2, ...
// Twenty writes leave blocks 0..3 sealed with one valid page each (score 3)
// and block 4 active and full; the 21st write needs block 5 with only two
// free blocks left, so GC runs until three are free: two victims.
TEST(OracleFtl, MatchesHandTracedGc) {
  FtlParams params;
  params.logical_pages = 8;
  params.pages_per_block = 4;
  params.overprovision = 0.5;
  const std::vector<uint64_t> fill = {0, 1, 2, 3, 4, 5, 6, 7,   // blocks 0, 1
                                      1, 2, 3, 6, 5, 7, 2, 3,   // blocks 2, 3
                                      7, 2, 3, 6};              // block 4
  const auto run = [&](bool break_tie_break) {
    Ftl real(params);
    OracleFtl oracle(params);
    EXPECT_EQ(real.physical_blocks(), 7u);
    EXPECT_EQ(oracle.physical_blocks(), 7u);
    if (break_tie_break) {
      real.test_only_break_victim_tie_break();
    }
    for (const uint64_t lpn : fill) {
      real.Write(lpn);
      oracle.Write(lpn);
    }
    EXPECT_EQ(real.total_erases(), 0u);
    // Overwriting lpn 7 invalidates a page of the still-active block 4, so
    // the candidates are blocks 0..3, tied at score 3.
    const FtlCost got = real.Write(7);
    const FtlCost want = oracle.Write(7);
    EXPECT_EQ(want.page_reads, 2u);
    EXPECT_EQ(want.page_programs, 3u);
    EXPECT_EQ(want.block_erases, 2u);
    EXPECT_EQ(got.page_reads, want.page_reads);
    EXPECT_EQ(got.page_programs, want.page_programs);
    EXPECT_EQ(got.block_erases, want.block_erases);
    // Ties go to the lowest index: block 0, then block 1 (block 4, now
    // sealed, scores only 1).
    EXPECT_EQ(oracle.last_victims(), std::vector<uint32_t>({0, 1}));
    real.CheckInvariants();
    return std::vector<uint64_t>{real.erase_count(0), real.erase_count(1), real.erase_count(2),
                                 real.erase_count(3)};
  };
  EXPECT_EQ(run(false), std::vector<uint64_t>({1, 1, 0, 0}));
  // The seam hands the same ties to blocks 3 and 2.
  EXPECT_EQ(run(true), std::vector<uint64_t>({0, 0, 1, 1}));
}

}  // namespace
}  // namespace flashsim
