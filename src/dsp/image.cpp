#include "dsp/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace dwt::dsp {

Image clamped_u8(const Image& img) {
  Image out(img.width(), img.height());
  std::transform(img.data().begin(), img.data().end(), out.data().begin(),
                 [](double v) { return std::clamp(std::round(v), 0.0, 255.0); });
  return out;
}

namespace {

bool is_space(std::uint8_t c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// A cursor over a PGM document that reports defects as read_pgm errors.
class PgmReader {
 public:
  PgmReader(std::span<const std::uint8_t> bytes, const std::string& name)
      : bytes_(bytes), name_(name) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("read_pgm: " + what + " in " + name_);
  }

  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

  void skip_space() {
    while (!at_end() && is_space(bytes_[pos_])) ++pos_;
  }

  [[nodiscard]] std::string_view token() {
    skip_space();
    const std::size_t start = pos_;
    while (!at_end() && !is_space(bytes_[pos_])) ++pos_;
    return {reinterpret_cast<const char*>(bytes_.data()) + start,
            pos_ - start};
  }

  /// An optionally signed decimal integer at the cursor, as `istream >>
  /// long` reads one; nullopt when no digit follows or it overflows.
  std::optional<long long> integer() {
    bool negative = false;
    if (!at_end() && (bytes_[pos_] == '+' || bytes_[pos_] == '-')) {
      negative = bytes_[pos_++] == '-';
    }
    const std::size_t first = pos_;
    long long v = 0;
    bool overflow = false;
    while (!at_end() && bytes_[pos_] >= '0' && bytes_[pos_] <= '9') {
      const int digit = bytes_[pos_++] - '0';
      overflow = overflow ||
                 v > (std::numeric_limits<long long>::max() - digit) / 10;
      if (!overflow) v = v * 10 + digit;
    }
    if (pos_ == first || overflow) return std::nullopt;
    return negative ? -v : v;
  }

  /// A header value: whitespace and '#' comment lines may precede it.
  long long header_value() {
    while (true) {
      if (at_end()) fail("truncated header");
      if (bytes_[pos_] == '#') {
        while (!at_end() && bytes_[pos_] != '\n') ++pos_;
        if (!at_end()) ++pos_;
      } else if (is_space(bytes_[pos_])) {
        ++pos_;
      } else {
        break;
      }
    }
    const std::optional<long long> v = integer();
    if (!v || *v < 0) fail("bad header");
    return *v;
  }

  /// The single whitespace byte that ends a P5 header.
  void header_end() {
    if (at_end()) fail("truncated data");
    if (!is_space(bytes_[pos_])) fail("no whitespace after maxval");
    ++pos_;
  }

  /// Fails unless at least n bytes are left.
  void require(std::size_t n) const {
    if (bytes_.size() - pos_ < n) fail("truncated data");
  }

  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
    require(n);
    pos_ += n;
    return bytes_.subspan(pos_ - n, n);
  }

  void check_sample(long long v, long long maxval) const {
    if (v < 0 || v > maxval) {
      fail("sample " + std::to_string(v) + " outside 0.." +
           std::to_string(maxval));
    }
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const std::string& name_;
  std::size_t pos_ = 0;
};

std::string pgm_header(std::size_t w, std::size_t h) {
  return "P5\n" + std::to_string(w) + " " + std::to_string(h) + "\n255\n";
}

/// Every sample of `from` through `f` into the same-shaped `to`.
template <class From, class To, class F>
void convert(PlaneView<From> from, PlaneView<To> to, F f) {
  for (std::size_t y = 0; y < from.height; ++y) {
    std::transform(from.row(y), from.row(y) + from.width, to.row(y), f);
  }
}

}  // namespace

PlaneView<const std::uint8_t> pgm_pixels(std::span<const std::uint8_t> bytes,
                                         const std::string& name,
                                         std::vector<std::uint8_t>* decoded) {
  PgmReader in(bytes, name);
  const std::string_view magic = in.token();
  if (magic != "P5" && magic != "P2") in.fail("unsupported PGM magic");
  const long long w = in.header_value();
  const long long h = in.header_value();
  const long long maxval = in.header_value();
  if (w == 0 || h == 0) in.fail("zero image dimensions");
  // The codec header (and any sane use of this library) caps dimensions at
  // 16 bits; a larger header is corrupt or hostile, not an image.
  if (w > 0xFFFF || h > 0xFFFF) in.fail("dimensions exceed 65535");
  if (maxval <= 0 || maxval > 255) {
    in.fail("only 8-bit PGM supported (maxval " + std::to_string(maxval) +
            ")");
  }
  const bool binary = magic == "P5";
  if (binary) in.header_end();
  // Memory follows the bytes received, not the header's claim: a P5 sample
  // is one byte and a P2 sample at least a separator and a digit, so a
  // document too short for its dimensions fails before the samples are
  // allocated.
  const std::size_t n = static_cast<std::size_t>(w * h);
  in.require(binary ? n : 2 * n);
  const auto view = [&](const std::uint8_t* data) {
    return PlaneView<const std::uint8_t>{data, static_cast<std::size_t>(w),
                                         static_cast<std::size_t>(w),
                                         static_cast<std::size_t>(h)};
  };
  if (binary) {
    const std::span<const std::uint8_t> pixels = in.take(n);
    if (maxval < 255) {
      const auto over = std::find_if(pixels.begin(), pixels.end(),
                                     [maxval](std::uint8_t v) { return v > maxval; });
      if (over != pixels.end()) in.check_sample(*over, maxval);
    }
    return view(pixels.data());
  }
  decoded->resize(n);
  for (std::uint8_t& px : *decoded) {
    in.skip_space();
    const std::optional<long long> v = in.integer();
    if (!v) in.fail("truncated data");
    in.check_sample(*v, maxval);
    px = static_cast<std::uint8_t>(*v);
  }
  return view(decoded->data());
}

PlaneView<const std::uint8_t> u8_view(std::span<const std::uint8_t> pixels,
                                      std::size_t w, std::size_t h) {
  if (w == 0 || h == 0 || pixels.size() / w < h) {
    throw std::invalid_argument("u8_view: fewer than width * height pixels");
  }
  return {pixels.data(), w, w, h};
}

Plane<std::int32_t> u8_plane(PlaneView<const std::uint8_t> pixels,
                             std::int32_t offset) {
  Plane<std::int32_t> plane(pixels.width, pixels.height);
  convert(pixels, plane.view(),
          [offset](std::uint8_t v) { return std::int32_t{v} - offset; });
  return plane;
}

Plane<std::int32_t> parse_pgm(std::span<const std::uint8_t> bytes,
                              const std::string& name, std::int32_t offset) {
  std::vector<std::uint8_t> decoded;
  return u8_plane(pgm_pixels(bytes, name, &decoded), offset);
}

std::vector<std::uint8_t> blank_pgm(std::size_t w, std::size_t h) {
  const std::string header = pgm_header(w, h);
  std::vector<std::uint8_t> out(header.begin(), header.end());
  out.resize(header.size() + w * h);
  return out;
}

std::vector<std::uint8_t> render_pgm(const Plane<std::int32_t>& plane,
                                     std::int32_t offset) {
  std::vector<std::uint8_t> out = blank_pgm(plane.width(), plane.height());
  std::transform(plane.data().begin(), plane.data().end(),
                 pgm_body(std::span(out), plane.width(), plane.height()).data,
                 [offset](std::int32_t v) { return to_pixel(v, offset); });
  return out;
}

std::vector<std::uint8_t> render_pgm(const Image& img, double offset) {
  std::vector<std::uint8_t> out = blank_pgm(img.width(), img.height());
  std::transform(img.data().begin(), img.data().end(),
                 pgm_body(std::span(out), img.width(), img.height()).data,
                 [offset](double v) { return to_pixel(v, offset); });
  return out;
}

Image to_image(const Plane<std::int32_t>& plane) {
  Image img(plane.width(), plane.height());
  std::copy(plane.data().begin(), plane.data().end(), img.data().begin());
  return img;
}

Plane<std::int32_t> to_int32_plane(const Image& img, double offset) {
  Plane<std::int32_t> plane(img.width(), img.height());
  std::transform(img.data().begin(), img.data().end(), plane.data().begin(),
                 [offset](double v) { return round_to_int32(v - offset); });
  return plane;
}

Image read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_pgm: cannot open " + path);
  return read_pgm(in, path);
}

Image read_pgm(std::istream& in, const std::string& name) {
  std::vector<std::uint8_t> bytes;
  char chunk[1 << 16];
  do {
    in.read(chunk, sizeof(chunk));
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  } while (in);
  std::vector<std::uint8_t> decoded;
  const PlaneView<const std::uint8_t> pixels =
      pgm_pixels(bytes, name, &decoded);
  Image img(pixels.width, pixels.height);
  convert(pixels, img.view(),
          [](std::uint8_t v) { return static_cast<double>(v); });
  return img;
}

void write_pgm(const Image& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pgm: cannot open " + path);
  write_pgm(img, out, path);
}

void write_pgm(const Image& img, std::ostream& out, const std::string& path) {
  const std::vector<std::uint8_t> bytes = render_pgm(img);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("write_pgm: write failed for " + path);
}

}  // namespace dwt::dsp
