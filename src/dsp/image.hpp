// Grayscale images and the one PGM parser and renderer.  An Image is a
// plane of doubles -- the sample type of the two float methods and of the
// Table 2 experiments; the integer-valued engines read into and render from
// int32 planes, and the tile round trip reads and writes 8-bit pixels in
// place, through the same parser and pixel conversion.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "dsp/plane.hpp"

namespace dwt::dsp {

/// Row-major grayscale image of doubles.  Pixel values are nominally 0..255
/// for source images; transform planes hold arbitrary reals.
using Image = Plane<double>;

/// The image with every pixel rounded and clamped to [0, 255] (display
/// range).
[[nodiscard]] Image clamped_u8(const Image& img);

/// The JPEG2000 DC level shift: an 8-bit pixel v is the signed sample
/// v - kLevelShift, matching the paper's signed 8-bit hardware inputs.
inline constexpr std::int32_t kLevelShift = 128;

/// The one PGM parser: validates a binary (P5) or ASCII (P2) 8-bit PGM
/// document -- truncated header/pixel detection, comment handling,
/// dimension and maxval caps, samples above maxval, the single whitespace
/// byte after a P5 maxval -- and returns its w x h row-major pixels.  A P5
/// document's pixels are a view into `bytes`; a P2 document's are decoded
/// into `*decoded`, which the view then addresses.  `name` labels the source
/// in error messages.
[[nodiscard]] PlaneView<const std::uint8_t> pgm_pixels(
    std::span<const std::uint8_t> bytes, const std::string& name,
    std::vector<std::uint8_t>* decoded);

/// The w x h row-major 8-bit pixels at the front of `pixels` (a raw
/// payload).  Throws std::invalid_argument when w or h is zero or `pixels`
/// holds fewer than w * h bytes.
[[nodiscard]] PlaneView<const std::uint8_t> u8_view(
    std::span<const std::uint8_t> pixels, std::size_t w, std::size_t h);

/// The pixels as an int32 plane, each pixel v stored as v - offset.
[[nodiscard]] Plane<std::int32_t> u8_plane(PlaneView<const std::uint8_t> pixels,
                                           std::int32_t offset = 0);

/// u8_plane of the pixels of a PGM document (pgm_pixels).
[[nodiscard]] Plane<std::int32_t> parse_pgm(std::span<const std::uint8_t> bytes,
                                            const std::string& name,
                                            std::int32_t offset = 0);

/// The sample v as the 8-bit pixel v + offset clamped to 0..255 -- for a
/// double, rounded half away from zero first.  Every renderer's conversion.
[[nodiscard]] inline std::uint8_t to_pixel(std::int32_t v,
                                           std::int32_t offset) {
  // Clamping before the offset keeps v + offset inside int32.
  return static_cast<std::uint8_t>(std::clamp(v, -offset, 255 - offset) +
                                   offset);
}
[[nodiscard]] inline std::uint8_t to_pixel(double v, double offset) {
  return static_cast<std::uint8_t>(
      std::clamp(std::round(v + offset), 0.0, 255.0));
}

/// The P5 document of a w x h image with every pixel 0: its header, then
/// the w * h pixel bytes that end it.
[[nodiscard]] std::vector<std::uint8_t> blank_pgm(std::size_t w,
                                                  std::size_t h);

/// The pixels of a w x h P5 document (blank_pgm's, or a render's): its last
/// w * h bytes.
template <class Byte>
[[nodiscard]] PlaneView<Byte> pgm_body(std::span<Byte> doc, std::size_t w,
                                       std::size_t h) {
  return {doc.data() + (doc.size() - w * h), w, w, h};
}

/// The P5 document of a plane: each pixel to_pixel(v, offset).
[[nodiscard]] std::vector<std::uint8_t> render_pgm(
    const Plane<std::int32_t>& plane, std::int32_t offset = 0);

/// The P5 document of an image: each pixel to_pixel(v, offset).
[[nodiscard]] std::vector<std::uint8_t> render_pgm(const Image& img,
                                                   double offset = 0.0);

/// The plane's samples as an image (exact).
[[nodiscard]] Image to_image(const Plane<std::int32_t>& plane);

/// The image's samples as an int32 plane, each pixel v stored as
/// round_to_int32(v - offset): the one conversion from doubles, so it throws
/// std::overflow_error for a pixel that is not finite or leaves int32.
[[nodiscard]] Plane<std::int32_t> to_int32_plane(const Image& img,
                                                 double offset = 0.0);

/// Reads a binary (P5) or ASCII (P2) 8-bit PGM file.
[[nodiscard]] Image read_pgm(const std::string& path);

/// Parses a PGM document from the rest of a stream through pgm_pixels.
[[nodiscard]] Image read_pgm(std::istream& in, const std::string& name);

/// Writes a binary (P5) 8-bit PGM file; pixels clamped/rounded to 0..255.
void write_pgm(const Image& img, const std::string& path);

/// Writes render_pgm(img) onto any stream (the same bytes as the file
/// writer).
void write_pgm(const Image& img, std::ostream& out, const std::string& name);

}  // namespace dwt::dsp
