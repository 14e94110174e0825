// Binary stream I/O primitives for the checkpoint file format, which
// documents "all integers little-endian"; these helpers are the single
// place to add byte-swapping if a big-endian host ever matters.
#pragma once

#include <istream>
#include <ostream>

namespace cfir::trace::io {

template <typename T>
void put_raw(std::ostream& s, const T& v) {
  s.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get_raw(std::istream& s) {
  T v{};
  s.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

}  // namespace cfir::trace::io
