// Sample planes: the row-major images every transform lifts in place --
// int32 for the integer-valued engines, double (dsp::Image) for the float
// and FIR methods -- and the windows (tiles, LL regions) they address inside
// one.  A Plane owns its samples; a PlaneView is a w x h window of any
// row-major buffer holding `pitch` samples per row, so a tile lifts where it
// lies without a copy.  A double enters an int32 plane only through
// round_to_int32, and a lifted int64 value only through narrow_to_int32.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dwt::dsp {

template <class T>
struct PlaneView {
  T* data = nullptr;       ///< top-left sample of the window
  std::size_t pitch = 0;   ///< samples per row of the underlying buffer
  std::size_t width = 0;
  std::size_t height = 0;

  [[nodiscard]] T* row(std::size_t y) const { return data + y * pitch; }

  /// The w x h sub-window whose top-left sample is (x0, y0).
  [[nodiscard]] PlaneView window(std::size_t x0, std::size_t y0,
                                 std::size_t w, std::size_t h) const {
    if (x0 + w > width || y0 + h > height) {
      throw std::out_of_range("PlaneView::window: region exceeds the plane");
    }
    return {data + y0 * pitch + x0, pitch, w, h};
  }
};

template <class T>
class Plane {
 public:
  Plane() = default;
  Plane(std::size_t width, std::size_t height, T fill = T{})
      : width_(width), height_(height), data_(width * height, fill) {}

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Sample (x, y); std::out_of_range outside the plane.
  [[nodiscard]] T& at(std::size_t x, std::size_t y) {
    return data_[index(x, y)];
  }
  [[nodiscard]] const T& at(std::size_t x, std::size_t y) const {
    return data_[index(x, y)];
  }

  [[nodiscard]] std::vector<T>& data() { return data_; }
  [[nodiscard]] const std::vector<T>& data() const { return data_; }

  [[nodiscard]] PlaneView<T> view() {
    return {data_.data(), width_, width_, height_};
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t x, std::size_t y) const {
    if (x >= width_ || y >= height_) throw std::out_of_range("Plane::at");
    return y * width_ + x;
  }

  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<T> data_;
};

/// The one way a double enters an integer plane: v rounded half away from
/// zero (as std::round and std::llround round).  Throws std::overflow_error
/// when v is not finite or rounds outside int32.
[[nodiscard]] inline std::int32_t round_to_int32(double v) {
  const double r = std::round(v);
  // Written so that NaN fails both comparisons.
  if (!(r >= std::numeric_limits<std::int32_t>::min() &&
        r <= std::numeric_limits<std::int32_t>::max())) {
    throw std::overflow_error("sample " + std::to_string(v) +
                              " outside int32");
  }
  return static_cast<std::int32_t>(r);
}

/// The one narrowing of a value lifted on int64 back into an int32 plane.
/// Throws std::overflow_error when v is outside int32.
[[nodiscard]] inline std::int32_t narrow_to_int32(std::int64_t v) {
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    throw std::overflow_error("coefficient " + std::to_string(v) +
                              " outside int32");
  }
  return static_cast<std::int32_t>(v);
}

}  // namespace dwt::dsp
