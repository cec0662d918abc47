// The command-line layer every tool shares: strict number parsing, a flag
// table, and checked whole-file reads and writes.
//
// A tool declares its `--name [value]` flags as a table of Flag entries and
// hands argv to parse_flags, which prints the one diagnostic a bad command
// line gets and returns false (the tool then exits 2):
//
//   unknown argument: ARG
//   bad --NAME value: missing value for --NAME     (a trailing value flag)
//   bad --NAME value: TOKEN (HINT)                 (the setter refused TOKEN)
#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dwt::cli {

/// Strict unsigned decimal in [lo, hi]: the whole token, digits only -- no
/// sign, space or trailing junk (atoi-style silent zeros would turn
/// "--trials 10O" into an empty campaign).
inline bool parse_uint(const char* s, unsigned long long lo,
                       unsigned long long hi, unsigned long long* out) {
  const char* end = s + std::strlen(s);
  unsigned long long v = 0;
  const auto [stop, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || stop != end || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Strict finite double: the whole token, no NaN or infinity.
inline bool parse_double(const char* s, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// One accepted flag: a value flag hands the token after it to `set`, which
/// returns false to refuse it; a switch runs `on` and takes no value.
struct Flag {
  std::string name;
  std::function<bool(const char*)> set;
  std::function<void()> on;
  std::string hint;  ///< appended to the refused-value diagnostic
};

/// `--name VALUE`, parsed by `set`.
inline Flag value_flag(std::string name, std::function<bool(const char*)> set,
                       std::string hint = {}) {
  return {std::move(name), std::move(set), nullptr, std::move(hint)};
}

/// `--name`, no value.
inline Flag switch_flag(std::string name, std::function<void()> on) {
  return {std::move(name), nullptr, std::move(on), {}};
}

/// `--name TEXT`, stored verbatim.
inline Flag text_flag(std::string name, std::string* dst) {
  return value_flag(std::move(name), [dst](const char* v) {
    *dst = v;
    return true;
  });
}

/// `--name N`: a strict unsigned in [lo, hi], stored into `*dst`.
template <class T>
Flag uint_flag(std::string name, unsigned long long lo, unsigned long long hi,
               T* dst, std::string hint = {}) {
  return value_flag(
      std::move(name),
      [lo, hi, dst](const char* v) {
        unsigned long long n = 0;
        if (!parse_uint(v, lo, hi, &n)) return false;
        *dst = static_cast<T>(n);
        return true;
      },
      std::move(hint));
}

/// Applies argv[first, argc) to `flags`.  A token that names no flag goes to
/// `positional` when one is given and does not start with "--"; otherwise
/// it is an unknown argument.  Prints the diagnostic and returns false at
/// the first bad argument.
inline bool parse_flags(int argc, char** argv, int first,
                        std::initializer_list<Flag> flags,
                        std::vector<const char*>* positional = nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) {
      if (positional != nullptr && !arg.starts_with("--")) {
        positional->push_back(argv[i]);
        continue;
      }
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
    if (flag->on) {
      flag->on();
      continue;
    }
    const char* name = flag->name.c_str();
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bad %s value: missing value for %s\n", name, name);
      return false;
    }
    const char* v = argv[++i];
    if (!flag->set(v)) {
      if (flag->hint.empty()) {
        std::fprintf(stderr, "bad %s value: %s\n", name, v);
      } else {
        std::fprintf(stderr, "bad %s value: %s (%s)\n", name, v,
                     flag->hint.c_str());
      }
      return false;
    }
  }
  return true;
}

/// The whole file at `path` as bytes (std::string or
/// std::vector<std::uint8_t>).  Throws std::runtime_error when the file
/// cannot be opened or a read fails part way.
template <class Bytes = std::string>
Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  Bytes bytes;
  char chunk[1 << 16];
  do {
    in.read(chunk, sizeof(chunk));
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  } while (in);
  if (in.bad()) throw std::runtime_error("read failed for " + path);
  return bytes;
}

/// Writes `bytes` to `path`, checked after the close: a full disk or I/O
/// error throws instead of exiting 0 with a truncated file for the next
/// pipeline stage.
inline void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) throw std::runtime_error("write failed for " + path);
}

inline void write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  write_file(path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                    bytes.size()));
}

}  // namespace dwt::cli
