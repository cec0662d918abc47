// Grayscale images and the one PGM parser and renderer.  An Image is a
// plane of doubles -- the sample type of the two float methods and of the
// Table 2 experiments; the integer-valued engines read into and render from
// int32 planes through the same parser and renderer.
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
using Image = Plane<double>;

/// The image with every pixel rounded and clamped to [0, 255] (display
/// range).
[[nodiscard]] Image clamped_u8(const Image& img);

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

/// The image's samples as an int32 plane, each pixel v stored as
/// round_to_int32(v - offset): the one conversion from doubles, so it throws
/// std::overflow_error for a pixel that is not finite or leaves int32.
[[nodiscard]] Plane<std::int32_t> to_int32_plane(const Image& img,
                                                 double offset = 0.0);

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
