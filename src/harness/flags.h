// Registering command-line flag parser for benches and examples.
//
// Each binary registers the flags it understands (the shared bench flags
// plus its own, e.g. fig02's --ws=60) and parses argv once. Unlike the old
// ParseBenchOptions, a flag nobody registered is an error: the parser
// prints a usage line listing every registered flag and the caller exits
// non-zero, instead of silently continuing with defaults.
#ifndef FLASHSIM_SRC_HARNESS_FLAGS_H_
#define FLASHSIM_SRC_HARNESS_FLAGS_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace flashsim {

// Collects flag registrations, then parses argv. Value flags take
// --name=value; bool flags are bare switches (--csv). Registration order is
// the usage-line order.
class FlagParser {
 public:
  void AddBool(const std::string& name, const std::string& help, bool* out);
  // Integer flags take a decimal that fits the type: AddInt's may carry a
  // '-', AddUint64's may not.
  void AddInt(const std::string& name, const std::string& help, int* out);
  void AddUint64(const std::string& name, const std::string& help, uint64_t* out);
  void AddDouble(const std::string& name, const std::string& help, double* out);
  // A time flag: a decimal count of `unit_ns` nanoseconds, stored in *out_ns
  // as nanoseconds. With `whole_units` the value is truncated to whole
  // units before scaling (--series-ms=1.5 is 1 ms), else the nanosecond
  // product is truncated (--flash-read-us=0.0015 is 1 ns). A value that is
  // not finite, or whose nanoseconds do not fit int64, is a bad value.
  void AddDuration(const std::string& name, const std::string& help, int64_t unit_ns,
                   bool whole_units, int64_t* out_ns);
  void AddString(const std::string& name, const std::string& help, std::string* out);
  // Escape hatch for flags with custom syntax (enums, policies). The
  // handler returns false to reject the value.
  void AddCustom(const std::string& name, const std::string& value_hint,
                 const std::string& help,
                 std::function<bool(const std::string& value)> handler);

  // Parses argv in order. On an unknown flag or a malformed value, prints
  // the offending argument and the usage line to stderr and returns false.
  bool Parse(int argc, char** argv);

  void PrintUsage(const std::string& program, std::ostream& os) const;

  // Convenience for main(): parse, exiting the process with status 2 on
  // error (the registering-parser replacement for ParseBenchOptions's
  // print-and-continue).
  void ParseOrExit(int argc, char** argv);

 private:
  struct Flag {
    std::string name;        // without leading dashes
    std::string value_hint;  // "" for bare switches
    std::string help;
    bool takes_value = false;
    std::function<bool(const std::string&)> handler;
  };

  const Flag* Find(const std::string& name) const;
  void Register(Flag flag);

  std::vector<Flag> flags_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_HARNESS_FLAGS_H_
