// Minimal grayscale image container with PGM (P5/P2) file I/O, used by the
// 2-D transforms, the PSNR experiments and the workload generators.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

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

  /// Copies the w x h top-left sub-image (tile extraction).
  [[nodiscard]] Image crop(std::size_t w, std::size_t h) const;

  /// Clamps all pixels to [0, 255] and rounds to integers (display range).
  [[nodiscard]] Image clamped_u8() const;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<double> data_;
};

/// Reads a binary (P5) or ASCII (P2) 8-bit PGM file.
[[nodiscard]] Image read_pgm(const std::string& path);

/// Parses a binary (P5) or ASCII (P2) 8-bit PGM document from any stream --
/// the one hardened parsing path (truncated header/pixel detection, comment
/// handling, dimension and maxval caps) shared by the file reader and the
/// dwt97d request decoder.  `name` labels the source in error messages.
[[nodiscard]] Image read_pgm(std::istream& in, const std::string& name);

/// Writes a binary (P5) 8-bit PGM file; pixels clamped/rounded to 0..255.
void write_pgm(const Image& img, const std::string& path);

/// Renders the same P5 bytes write_pgm(path) would produce onto any stream
/// (the dwt97d response encoder shares the file writer's exact bytes).
void write_pgm(const Image& img, std::ostream& out, const std::string& name);

}  // namespace dwt::dsp
