// Span tracer: records (start, end) spans on named tracks and
// exports Chrome trace_event JSON loadable in chrome://tracing / Perfetto.
//
// Tracks mirror the simulator's structure: one process (pid) per host plus
// auxiliary processes (filer, sim-wide counters), and within each process
// one track (tid) per application thread or device. Device service can
// overlap itself (NCQ flash, filer concurrency), so devices register a
// *lane group*: group spans are buffered at record time and packed into
// "flash.0", "flash.1", ... lane tracks at export, sorted by start time and
// assigned first-fit (optimal for intervals in start order — exactly the
// group's true peak concurrency many lanes, even though spans are recorded
// in request order, not service order). The packing guarantees the exported
// invariant the golden test checks: spans on one track never partially
// overlap — each track reads as a clean timeline.
//
// All state is plain vectors of POD records; recording a span is a bounds
// check plus a push_back. A max_spans cap bounds memory on long runs; spans
// beyond it are dropped and counted (never silently).
#ifndef FLASHSIM_SRC_OBS_TRACE_WRITER_H_
#define FLASHSIM_SRC_OBS_TRACE_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/sim_time.h"
#include "src/util/assert.h"

namespace flashsim {
namespace obs {

class TraceWriter {
 public:
  explicit TraceWriter(uint64_t max_spans) : max_spans_(max_spans) {}

  // Registration (construction time, not hot path). `expected_lanes` is a
  // concurrency hint (reserve sizing); the exporter creates exactly as many
  // lanes as the group's spans actually overlap.
  int RegisterProcess(std::string name);
  int RegisterTrack(int pid, std::string name);
  int RegisterLaneGroup(int pid, std::string name, int expected_lanes);
  int RegisterName(std::string name);  // span/counter label, interned

  // Records a complete span on a fixed track. The caller guarantees spans
  // on a fixed track never partially overlap (one op in flight per app
  // thread); lane groups below handle the overlapping case.
  void AddSpan(int track, int name, SimTime start, SimTime end);

  // Records a span into a lane group (lane chosen at export time).
  void AddGroupSpan(int group, int name, SimTime start, SimTime end);

  // Records a counter sample (Chrome "C" event, plotted as an area track).
  void AddCounter(int track, int name, SimTime t, double value);

  uint64_t spans_recorded() const { return spans_.size() + group_span_count_; }
  uint64_t spans_dropped() const { return spans_dropped_; }

  // Serializes everything as one {"traceEvents":[...]} document. Output is
  // a pure function of the recorded state (timestamps are simulated time,
  // printed via integer math), so equal runs export equal bytes.
  void WriteJson(std::ostream& os) const;

 private:
  struct Track {
    int pid;
    int tid;  // per-process, 0-based
    std::string name;
  };
  struct GroupSpan {
    int32_t name;
    SimTime start;
    SimTime end;
  };
  struct LaneGroup {
    int pid;
    std::string name;
    std::vector<GroupSpan> spans;  // packed into lanes at export
  };
  struct SpanRecord {
    int32_t track;
    int32_t name;
    SimTime start;
    SimTime end;
  };
  struct CounterRecord {
    int32_t track;
    int32_t name;
    SimTime t;
    double value;
  };

  std::vector<std::string> processes_;
  std::vector<Track> tracks_;
  std::vector<int> next_tid_;  // per process
  std::vector<LaneGroup> groups_;
  std::vector<std::string> names_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  uint64_t max_spans_;
  uint64_t group_span_count_ = 0;  // across all groups
  uint64_t spans_dropped_ = 0;
};

}  // namespace obs
}  // namespace flashsim

#endif  // FLASHSIM_SRC_OBS_TRACE_WRITER_H_
