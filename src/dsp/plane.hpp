// Integer sample planes: the row-major int32 (or int64) images the integer
// lifting methods lift in place, and the windows (tiles, LL regions) they
// address inside one.  A Plane owns its samples; a PlaneView is a w x h
// window of any row-major buffer holding `pitch` samples per row, so a tile
// lifts where it lies without a copy.
#pragma once

#include <cstddef>
#include <stdexcept>
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

  [[nodiscard]] std::vector<T>& data() { return data_; }
  [[nodiscard]] const std::vector<T>& data() const { return data_; }

  [[nodiscard]] PlaneView<T> view() {
    return {data_.data(), width_, width_, height_};
  }

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<T> data_;
};

}  // namespace dwt::dsp
