// Typed argument marshalling for the v2 RPC layer.
//
// Maps C++ values onto the madeleine pack/unpack primitives so service
// signatures can be expressed as plain parameter lists:
//
//   wire type                 C++ type
//   ------------------------  -----------------------------------------
//   fixed-size scalar         any trivially copyable T (int, double, …)
//   length-prefixed string    std::string
//   length-prefixed array     std::vector<T>, T trivially copyable
//
// pack_values()/unpack_value() are the single source of truth for the
// typed wire encoding: Runtime::call<R> packs with them, the service
// wrapper unpacks with them, so both sides agree by construction;
// packed_size() is their byte count, so a typed packer sizes its buffer
// once.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "madeleine/buffers.hpp"

namespace pm2::mad {

template <typename T>
struct is_std_vector : std::false_type {};
template <typename T, typename A>
struct is_std_vector<std::vector<T, A>> : std::true_type {};

/// Does the typed layer know how to marshal T?  Pointers and raw arrays
/// are trivially copyable but deliberately rejected: packing them would
/// ship pointer bytes (meaningless on the peer) or a bare char array
/// where the handler expects a length-prefixed std::string.
template <typename T>
inline constexpr bool is_rpc_marshallable_v =
    !std::is_pointer_v<T> && !std::is_array_v<T> &&
    (std::is_same_v<T, std::string> || is_std_vector<T>::value ||
     std::is_trivially_copyable_v<T>);

template <typename T>
void pack_value(PackBuffer& pb, const T& v) {
  static_assert(!std::is_pointer_v<T> && !std::is_array_v<T>,
                "RPC arguments cannot be pointers or raw arrays — pass "
                "std::string (not a string literal) or std::vector");
  static_assert(is_rpc_marshallable_v<T>,
                "RPC argument must be trivially copyable, std::string, or "
                "std::vector<trivially-copyable>");
  if constexpr (std::is_same_v<T, std::string>) {
    pb.pack_string(v);
  } else if constexpr (is_std_vector<T>::value) {
    static_assert(std::is_trivially_copyable_v<typename T::value_type>);
    pb.pack<uint32_t>(static_cast<uint32_t>(v.size()));
    pb.pack_bytes(v.data(), v.size() * sizeof(typename T::value_type),
                  PackMode::kCopy);
  } else {
    pb.pack<T>(v);
  }
}

/// Bytes pack_value(v) appends.
template <typename T>
size_t packed_value_size(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return sizeof(uint32_t) + v.size();
  } else if constexpr (is_std_vector<T>::value) {
    return sizeof(uint32_t) + v.size() * sizeof(typename T::value_type);
  } else {
    return sizeof(T);
  }
}

/// Bytes pack_values(args...) appends.
template <typename... Args>
size_t packed_size(const Args&... args) {
  return (size_t{0} + ... + packed_value_size(args));
}

/// Pack every argument left to right.
template <typename... Args>
void pack_values(PackBuffer& pb, const Args&... args) {
  (pack_value(pb, args), ...);
}

/// pack_values into a buffer sized to fit exactly: the typed RPC packers
/// use it, so each typed request and reply travels as one owned chunk that
/// the receiver takes whole (Message::flat() moves it, never gathers).
template <typename... Args>
PackBuffer pack_exact(const Args&... args) {
  PackBuffer pb(packed_size(args...));
  pack_values(pb, args...);
  return pb;
}

template <typename T>
T unpack_value(UnpackBuffer& ub) {
  static_assert(!std::is_pointer_v<T> && !std::is_array_v<T>,
                "RPC arguments cannot be pointers or raw arrays — use "
                "std::string or std::vector");
  static_assert(is_rpc_marshallable_v<T>,
                "RPC argument must be trivially copyable, std::string, or "
                "std::vector<trivially-copyable>");
  if constexpr (std::is_same_v<T, std::string>) {
    return ub.unpack_string();
  } else if constexpr (is_std_vector<T>::value) {
    using E = typename T::value_type;
    static_assert(std::is_trivially_copyable_v<E>);
    auto n = ub.unpack<uint32_t>();
    // Validate the untrusted wire length before sizing the vector, so a
    // corrupt frame dies with the underrun diagnostic, not an OOM.
    PM2_CHECK(size_t{n} * sizeof(E) <= ub.remaining())
        << "serialized buffer underrun (vector length prefix)";
    if constexpr (sizeof(E) == 1) {
      // Byte payloads (the dominant RPC argument) construct straight from
      // a view of the wire: one copy, no zero-fill of the vector first.
      const uint8_t* src = ub.view_bytes(n);
      return T(reinterpret_cast<const E*>(src),
               reinterpret_cast<const E*>(src) + n);
    } else {
      // Wider elements may be unaligned on the wire: memcpy via
      // unpack_bytes keeps this well-defined.
      T v(n);
      ub.unpack_bytes(v.data(), size_t{n} * sizeof(E));
      return v;
    }
  } else {
    return ub.unpack<T>();
  }
}

}  // namespace pm2::mad
