// Minimal grayscale image container with PGM (P5/P2) file I/O, used by the
// 2-D transforms, the PSNR experiments and the workload generators, and the
// one PGM parser and renderer, which also read into and render from the
// int32 sample planes of the integer transforms.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "dsp/plane.hpp"

namespace dwt::dsp {

/// Row-major grayscale image of doubles.  Pixel values are nominally 0..255
/// for source images; transform planes hold arbitrary reals.
class Image {
 public:
  Image() = default;
  Image(std::size_t width, std::size_t height, double fill = 0.0);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& at(std::size_t x, std::size_t y);
  [[nodiscard]] const double& at(std::size_t x, std::size_t y) const;

  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  [[nodiscard]] PlaneView<double> view() {
    return {data_.data(), width_, width_, height_};
  }

  /// Copies the w x h top-left sub-image (tile extraction).
  [[nodiscard]] Image crop(std::size_t w, std::size_t h) const;

  /// Clamps all pixels to [0, 255] and rounds to integers (display range).
  [[nodiscard]] Image clamped_u8() const;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<double> data_;
};

/// Parses a binary (P5) or ASCII (P2) 8-bit PGM document -- the one
/// hardened parsing path (truncated header/pixel detection, comment
/// handling, dimension and maxval caps, samples above maxval, the single
/// whitespace byte after a P5 maxval) behind every reader.  Each sample v is
/// stored as v - offset (offset 128 is the DC level shift).  `name` labels
/// the source in error messages.
[[nodiscard]] Plane<std::int32_t> parse_pgm(std::span<const std::uint8_t> bytes,
                                            const std::string& name,
                                            std::int32_t offset = 0);

/// A w x h plane of row-major 8-bit pixels, each stored as v - offset.
/// Throws std::invalid_argument when `pixels` holds fewer than w * h bytes.
[[nodiscard]] Plane<std::int32_t> u8_plane(std::span<const std::uint8_t> pixels,
                                           std::size_t w, std::size_t h,
                                           std::int32_t offset = 0);

/// The P5 document of a plane: each pixel v + offset clamped to 0..255.
[[nodiscard]] std::vector<std::uint8_t> render_pgm(
    const Plane<std::int32_t>& plane, std::int32_t offset = 0);

/// The P5 document of an image: each pixel v + offset rounded and clamped to
/// 0..255.
[[nodiscard]] std::vector<std::uint8_t> render_pgm(const Image& img,
                                                   double offset = 0.0);

/// The plane's samples as an image (exact).
[[nodiscard]] Image to_image(const Plane<std::int32_t>& plane);

/// Reads a binary (P5) or ASCII (P2) 8-bit PGM file.
[[nodiscard]] Image read_pgm(const std::string& path);

/// Parses a PGM document from the rest of a stream through parse_pgm.
[[nodiscard]] Image read_pgm(std::istream& in, const std::string& name);

/// Writes a binary (P5) 8-bit PGM file; pixels clamped/rounded to 0..255.
void write_pgm(const Image& img, const std::string& path);

/// Writes render_pgm(img) onto any stream (the same bytes as the file
/// writer).
void write_pgm(const Image& img, std::ostream& out, const std::string& name);

}  // namespace dwt::dsp
