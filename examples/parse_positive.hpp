#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace vhadoop::examples {

/// Whole-string parse of a positive, finite number ("12x", "0", "-5" and
/// "inf" all fail); the command-line number rule of the example programs.
template <typename T>
bool parse_positive(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !(value > 0)) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

}  // namespace vhadoop::examples
