#include "src/harness/flags.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/util/assert.h"

namespace flashsim {

namespace {

// Unsigned decimal. strtoull would accept a sign (negating "-1" to
// 2^64 - 1) and saturate on overflow, so a value must start with a digit
// and fit in 64 bits.
bool ParseUint64Value(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

// Signed decimal within int's range.
bool ParseIntValue(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE || value < INT_MIN ||
      value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseDoubleValue(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

// See FlagParser::AddDuration.
bool ParseDurationValue(const std::string& text, int64_t unit_ns, bool whole_units,
                        int64_t* out) {
  double value = 0.0;
  if (!ParseDoubleValue(text, &value)) {
    return false;
  }
  // No time flag has a meaning below zero, and the cast below truncates
  // toward zero and is defined only below 2^63; NaN and the infinities
  // fail this test too.
  constexpr double kLimit = 9223372036854775808.0;
  const double scaled = whole_units ? value : value * static_cast<double>(unit_ns);
  if (!(scaled >= 0.0 && scaled < kLimit)) {
    return false;
  }
  const int64_t truncated = static_cast<int64_t>(scaled);
  if (!whole_units) {
    *out = truncated;
    return true;
  }
  if (truncated > INT64_MAX / unit_ns) {
    return false;
  }
  *out = truncated * unit_ns;
  return true;
}

}  // namespace

void FlagParser::Register(Flag flag) {
  FLASHSIM_CHECK(Find(flag.name) == nullptr);
  flags_.push_back(std::move(flag));
}

void FlagParser::AddBool(const std::string& name, const std::string& help, bool* out) {
  AddCustom(name, "", help, [out](const std::string&) {
    *out = true;
    return true;
  });
}

void FlagParser::AddInt(const std::string& name, const std::string& help, int* out) {
  AddCustom(name, "N", help, [out](const std::string& value) { return ParseIntValue(value, out); });
}

void FlagParser::AddUint64(const std::string& name, const std::string& help, uint64_t* out) {
  AddCustom(name, "N", help,
            [out](const std::string& value) { return ParseUint64Value(value, out); });
}

void FlagParser::AddDouble(const std::string& name, const std::string& help, double* out) {
  AddCustom(name, "N", help,
            [out](const std::string& value) { return ParseDoubleValue(value, out); });
}

void FlagParser::AddDuration(const std::string& name, const std::string& help, int64_t unit_ns,
                             bool whole_units, int64_t* out_ns) {
  AddCustom(name, "N", help, [unit_ns, whole_units, out_ns](const std::string& value) {
    return ParseDurationValue(value, unit_ns, whole_units, out_ns);
  });
}

void FlagParser::AddString(const std::string& name, const std::string& help, std::string* out) {
  AddCustom(name, "S", help, [out](const std::string& value) {
    *out = value;
    return true;
  });
}

void FlagParser::AddCustom(const std::string& name, const std::string& value_hint,
                           const std::string& help,
                           std::function<bool(const std::string&)> handler) {
  Flag flag;
  flag.name = name;
  flag.value_hint = value_hint;
  flag.help = help;
  flag.takes_value = !value_hint.empty();
  flag.handler = std::move(handler);
  Register(std::move(flag));
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      std::fprintf(stderr, "%s: unrecognized argument: %s\n", argv[0], arg.c_str());
      PrintUsage(argv[0], std::cerr);
      return false;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag: --%s\n", argv[0], name.c_str());
      PrintUsage(argv[0], std::cerr);
      return false;
    }
    if (flag->takes_value != (eq != std::string::npos)) {
      std::fprintf(stderr, "%s: flag --%s %s a value\n", argv[0], name.c_str(),
                   flag->takes_value ? "requires" : "does not take");
      PrintUsage(argv[0], std::cerr);
      return false;
    }
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (!flag->handler(value)) {
      std::fprintf(stderr, "%s: bad value for --%s: %s\n", argv[0], name.c_str(), value.c_str());
      PrintUsage(argv[0], std::cerr);
      return false;
    }
  }
  return true;
}

void FlagParser::PrintUsage(const std::string& program, std::ostream& os) const {
  os << "usage: " << program;
  for (const Flag& flag : flags_) {
    os << " [--" << flag.name;
    if (flag.takes_value) {
      os << "=" << flag.value_hint;
    }
    os << "]";
  }
  os << "\n";
  for (const Flag& flag : flags_) {
    os << "  --" << flag.name;
    if (flag.takes_value) {
      os << "=" << flag.value_hint;
    }
    os << "  " << flag.help << "\n";
  }
}

void FlagParser::ParseOrExit(int argc, char** argv) {
  if (!Parse(argc, argv)) {
    std::exit(2);
  }
}

}  // namespace flashsim
