// Coherence protocols over the consistency directory (DESIGN.md §15).
//
// The paper's model (§3.8) is a zero-cost perfect directory: stale copies
// vanish instantly on write and the simulator only *counts* invalidations.
// This layer makes the protocol real. Control messages (directory lookups,
// invalidation callbacks, acks, lease grants) travel the same network links
// and queue at the same filer as data, so contention on shared blocks shows
// up as latency on the I/O path instead of a counter.
//
// Three members on the `SimConfig::coherence` axis:
//
//   perfect    The paper's model, bit-for-bit: PerfectProtocol::OnWrite
//              drops stale copies instantly and charges nothing, so every
//              committed golden digest reproduces byte-identically. Reads
//              never enter the protocol.
//
//   directory  Synchronous lookup + invalidate round trips. Every read miss
//              pays a directory lookup round trip before the data fetch; a
//              write that finds other holders pays report -> per-holder
//              callback -> per-holder ack -> grant, and the writer blocks
//              until the grant returns.
//
//   lease      Time-bounded read leases with callback breaks. A cached copy
//              is readable for free while its lease is live; expired leases
//              renew with a round trip. Writers break only *live* remote
//              leases (callback + ack); expired holders are invalidated
//              silently — the lease win: hot read-shared blocks avoid
//              per-read directory traffic, and write-sharing pays for it.
//
// The per-block sharing state (Invalid/Shared/Exclusive/Dirty, MESI-style)
// is derived, not stored: the Directory holder set gives the copy set and
// the stacks' dirty bits distinguish Exclusive from Dirty. The protocols
// maintain the MESI single-writer invariant — a write invalidates all other
// copies, and a read miss first reconciles a remote Dirty copy (flush to
// filer + drop) — so `holders >= 2 implies nobody dirty` is checkable, and
// tests/coherence_protocol_test.cc checks it per step.
//
// Layering: this file depends only on the directory, sim time, and block
// keys. Everything the protocols need from the world — link timing, filer
// queueing, cache residency and dirty bits — comes through the
// CoherenceTransport interface, implemented once by RigTransport
// (rig_transport.h) for the simulator, the differential rig and the
// protocol test net alike. Protocol code never draws RNG, so enabling a
// protocol cannot perturb the device-layer random streams.
#ifndef FLASHSIM_SRC_CONSISTENCY_COHERENCE_H_
#define FLASHSIM_SRC_CONSISTENCY_COHERENCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/consistency/directory.h"
#include "src/sim/sim_time.h"
#include "src/trace/record.h"

namespace flashsim {

enum class CoherenceModel : uint8_t {
  kPerfect = 0,    // zero-cost counting directory (the paper's model)
  kDirectory = 1,  // synchronous lookup + invalidate round trips
  kLease = 2,      // time-bounded read leases with callback breaks
};

const char* CoherenceModelName(CoherenceModel model);
std::optional<CoherenceModel> ParseCoherenceModel(const std::string& name);

// MESI-style per-block sharing state, derived from the directory holder set
// and the holders' dirty bits (see StateOf below).
enum class SharingState : uint8_t {
  kInvalid = 0,    // cached nowhere
  kShared = 1,     // >= 2 clean copies
  kExclusive = 2,  // exactly one copy, clean
  kDirty = 3,      // exactly one copy, modified
};

const char* SharingStateName(SharingState state);

// Protocol message and stall accounting. Totals surface in Metrics JSON and
// the differential oracle compares them per op against the longhand model.
struct CoherenceCounters {
  uint64_t lookups = 0;                // directory lookup requests (read misses)
  uint64_t invalidation_messages = 0;  // every control packet on the wire
  uint64_t acks = 0;                   // invalidation acks writers waited for
  uint64_t lease_grants = 0;           // fresh leases granted on fetch
  uint64_t lease_renewals = 0;         // expired-lease renewal round trips
  uint64_t lease_breaks = 0;           // live leases broken by a writer
  uint64_t dirty_fetches = 0;          // remote Dirty copies flushed for a read
  uint64_t stalled_reads = 0;          // reads that waited on protocol traffic
  uint64_t stalled_read_ns = 0;        // total read-path protocol stall
  uint64_t stalled_writes = 0;         // writes that waited on protocol traffic
  uint64_t stalled_write_ns = 0;       // total write-path protocol stall

  bool any() const {
    return lookups != 0 || invalidation_messages != 0 || acks != 0 ||
           lease_grants != 0 || lease_renewals != 0 || lease_breaks != 0 ||
           dirty_fetches != 0 || stalled_reads != 0 || stalled_read_ns != 0 ||
           stalled_writes != 0 || stalled_write_ns != 0;
  }
  CoherenceCounters& operator+=(const CoherenceCounters& o);
  friend bool operator==(const CoherenceCounters&, const CoherenceCounters&) = default;
};

// Everything a protocol needs from the simulated world. Message sends
// occupy link/filer resources and return arrival times; residency queries
// consult the real cache stacks (or, on the oracle side of the
// differential rig, the reference models).
class CoherenceTransport {
 public:
  virtual ~CoherenceTransport() = default;

  // A control (or data, when carries_data) packet host -> filer / filer ->
  // host; returns arrival time at the far end.
  virtual SimTime HostToFiler(int host, SimTime now, bool carries_data) = 0;
  virtual SimTime FilerToHost(int host, SimTime now, bool carries_data) = 0;

  // Occupies the filer shard owning `key` for `service`; returns completion.
  // Never draws RNG (unlike a data read) and never counts as a data
  // read/write, so audit conservation identities are untouched.
  virtual SimTime FilerService(BlockKey key, SimTime arrival, SimDuration service) = 0;

  // Drops `host`'s cached copy of `key` (stack Invalidate; the residency
  // listener updates the Directory).
  virtual void DropCopy(int host, BlockKey key) = 0;

  virtual bool HoldsCopy(int host, BlockKey key) const = 0;
  virtual bool HoldsDirty(int host, BlockKey key) const = 0;
};

struct CoherenceParams {
  CoherenceModel model = CoherenceModel::kPerfect;
  int num_hosts = 1;
  // Filer-side service time per directory control message.
  SimDuration directory_service_ns = 0;
  // Filer-side service time to absorb a reconciled dirty flush.
  SimDuration flush_service_ns = 0;
  // Lease only: read-lease lifetime.
  SimDuration lease_ns = 0;
};

class CoherenceProtocol {
 public:
  CoherenceProtocol(const CoherenceParams& params, Directory* directory,
                    CoherenceTransport* transport);
  virtual ~CoherenceProtocol() = default;

  // Protocol work before `host` reads `key` at `now` (lookup round trips,
  // dirty reconciliation, lease renewal). Returns the adjusted start time
  // for the stack's own read; == now when the read is protocol-silent.
  virtual SimTime BeforeRead(int host, BlockKey key, SimTime now) = 0;

  // Directory update + invalidation traffic after `host`'s stack accepted a
  // write of `key`. Returns the writer-visible completion time (> now when
  // the protocol makes the writer wait). Must be the only caller of
  // Directory::OnBlockWrite so invalidation counting stays single-sourced.
  virtual SimTime OnWrite(int host, BlockKey key, SimTime now, bool measured) = 0;

  // Derived MESI state of `key` right now. O(holders) — diagnostic and
  // test-net use, not hot path.
  SharingState StateOf(BlockKey key) const;

  CoherenceModel model() const { return params_.model; }
  const CoherenceCounters& host_counters(int host) const {
    return per_host_[static_cast<size_t>(host)];
  }
  CoherenceCounters totals() const;

  // Lease model only: `host`'s lease expiry on `key`, if one was granted
  // and the copy not since dropped. nullopt for other models. Diagnostic
  // and test-net use (the monotonicity invariant).
  virtual std::optional<SimTime> LeaseExpiry(int host, BlockKey key) const {
    (void)host;
    (void)key;
    return std::nullopt;
  }

  // Test-only: arm the protocol's deliberate-bug seam (DESIGN.md §15).
  // directory: OnWrite stops sending/counting/waiting-for acks. lease:
  // OnWrite stops breaking live leases (their holders keep stale copies).
  // The differential oracle must catch both (tests/differential_test.cc).
  virtual void test_only_break_protocol() {}

 protected:
  CoherenceCounters& at(int host) { return per_host_[static_cast<size_t>(host)]; }

  // Hook: the protocol dropped `host`'s copy through the transport (lease
  // cleanup). Not called for capacity evictions — those are invisible here
  // and any leftover lease entry is never consulted while stale.
  virtual void OnCopyDropped(int host, BlockKey key) {
    (void)host;
    (void)key;
  }

  // MESI M->I on remote read: each *other* holder with a dirty copy gets a
  // recall callback, flushes its version to the filer (data packet + filer
  // write service), and drops the copy, so the reader's subsequent fetch
  // observes the latest version. Returns the time the last flush settled
  // (== ready when there was no dirty holder). Stats charge to `reader`.
  SimTime ReconcileDirty(int reader, BlockKey key, SimTime ready);

  const CoherenceParams params_;
  Directory* const directory_;
  CoherenceTransport* const transport_;
  std::vector<CoherenceCounters> per_host_;
  std::vector<int> scratch_holders_;  // ReconcileDirty iteration snapshot
};

std::unique_ptr<CoherenceProtocol> MakeCoherenceProtocol(const CoherenceParams& params,
                                                         Directory* directory,
                                                         CoherenceTransport* transport);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CONSISTENCY_COHERENCE_H_
