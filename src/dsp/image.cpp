#include "dsp/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dwt::dsp {

Image::Image(std::size_t width, std::size_t height, double fill)
    : width_(width), height_(height), data_(width * height, fill) {}

double& Image::at(std::size_t x, std::size_t y) {
  if (x >= width_ || y >= height_) throw std::out_of_range("Image::at");
  return data_[y * width_ + x];
}

const double& Image::at(std::size_t x, std::size_t y) const {
  if (x >= width_ || y >= height_) throw std::out_of_range("Image::at");
  return data_[y * width_ + x];
}

Image Image::crop(std::size_t w, std::size_t h) const {
  if (w > width_ || h > height_) throw std::out_of_range("Image::crop");
  Image out(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = at(x, y);
  }
  return out;
}

Image Image::clamped_u8() const {
  Image out(width_, height_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double v = std::round(data_[i]);
    out.data()[i] = std::clamp(v, 0.0, 255.0);
  }
  return out;
}

Image read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_pgm: cannot open " + path);
  return read_pgm(in, path);
}

Image read_pgm(std::istream& in, const std::string& path) {
  std::string magic;
  in >> magic;
  if (magic != "P5" && magic != "P2") {
    throw std::runtime_error("read_pgm: unsupported PGM magic in " + path);
  }
  auto next_token = [&in, &path]() -> long {
    // Skip whitespace and '#' comment lines between header tokens.  peek()
    // returns EOF on a truncated header; bail instead of feeding it to
    // isspace (undefined for out-of-range values).
    while (true) {
      const int c = in.peek();
      if (c == std::char_traits<char>::eof()) {
        throw std::runtime_error("read_pgm: truncated header in " + path);
      }
      if (c == '#') {
        std::string line;
        std::getline(in, line);
      } else if (std::isspace(c)) {
        in.get();
      } else {
        break;
      }
    }
    long v = -1;
    in >> v;
    if (!in || v < 0) throw std::runtime_error("read_pgm: bad header in " + path);
    return v;
  };
  const long w = next_token();
  const long h = next_token();
  const long maxval = next_token();
  if (w == 0 || h == 0) {
    throw std::runtime_error("read_pgm: zero image dimensions in " + path);
  }
  // The codec header (and any sane use of this library) caps dimensions at
  // 16 bits; a larger header is corrupt or hostile, not an image.
  if (w > 0xFFFF || h > 0xFFFF) {
    throw std::runtime_error("read_pgm: dimensions exceed 65535 in " + path);
  }
  if (maxval <= 0 || maxval > 255) {
    throw std::runtime_error("read_pgm: only 8-bit PGM supported (maxval " +
                             std::to_string(maxval) + ") in " + path);
  }
  Image img(static_cast<std::size_t>(w), static_cast<std::size_t>(h));
  if (magic == "P5") {
    in.get();  // single whitespace after maxval
    std::vector<unsigned char> buf(img.data().size());
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    if (!in) throw std::runtime_error("read_pgm: truncated data in " + path);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      img.data()[i] = static_cast<double>(buf[i]);
    }
  } else {
    for (double& px : img.data()) {
      long v = 0;
      in >> v;
      if (!in) throw std::runtime_error("read_pgm: truncated data in " + path);
      if (v < 0 || v > maxval) {
        throw std::runtime_error("read_pgm: sample " + std::to_string(v) +
                                 " outside 0.." + std::to_string(maxval) +
                                 " in " + path);
      }
      px = static_cast<double>(v);
    }
  }
  return img;
}

void write_pgm(const Image& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pgm: cannot open " + path);
  write_pgm(img, out, path);
}

void write_pgm(const Image& img, std::ostream& out, const std::string& path) {
  out << "P5\n" << img.width() << " " << img.height() << "\n255\n";
  std::vector<unsigned char> buf(img.data().size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const double v = std::clamp(std::round(img.data()[i]), 0.0, 255.0);
    buf[i] = static_cast<unsigned char>(v);
  }
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("write_pgm: write failed for " + path);
}

}  // namespace dwt::dsp
