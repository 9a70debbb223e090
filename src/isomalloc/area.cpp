#include "isomalloc/area.hpp"

#include "common/check.hpp"

namespace pm2::iso {

Area::Area(const AreaConfig& config)
    : config_(config),
      reservation_(config.base, config.size) {
  PM2_CHECK(config_.slot_size % sys::page_size() == 0)
      << "slot size must be page aligned";
  PM2_CHECK(config_.size % config_.slot_size == 0)
      << "area size must be a whole number of slots";
  PM2_CHECK(n_slots() >= 2) << "area too small";
}

void* Area::slot_addr(size_t index) const {
  PM2_DCHECK(index < n_slots());
  return reinterpret_cast<void*>(config_.base + index * config_.slot_size);
}

size_t Area::slot_of(const void* addr) const {
  auto a = reinterpret_cast<uintptr_t>(addr);
  PM2_CHECK(a >= config_.base && a < config_.base + config_.size)
      << "address outside iso-area";
  return (a - config_.base) / config_.slot_size;
}

bool Area::contains(const void* addr) const {
  auto a = reinterpret_cast<uintptr_t>(addr);
  return a >= config_.base && a < config_.base + config_.size;
}

void Area::commit(size_t first, size_t count, size_t from) {
  PM2_CHECK(first + count <= n_slots() && from <= count * config_.slot_size);
  reservation_.commit(config_.base + first * config_.slot_size + from,
                      count * config_.slot_size - from);
}

void Area::decommit(size_t first, size_t count) {
  PM2_CHECK(first + count <= n_slots());
  if (config_.skip_decommit) return;  // see AreaConfig::skip_decommit
  reservation_.decommit(config_.base + first * config_.slot_size,
                        count * config_.slot_size);
}

void Area::decommit_force(size_t first, size_t count, size_t from) {
  PM2_CHECK(first + count <= n_slots() && from <= count * config_.slot_size);
  reservation_.decommit(config_.base + first * config_.slot_size + from,
                        count * config_.slot_size - from);
}

bool Area::committed(size_t index) const {
  return sys::probe_readable(
      config_.base + index * config_.slot_size, 1);
}

sys::WriteWatch& Area::write_watch() {
  std::call_once(watch_once_, [this] {
    watch_ = std::make_unique<sys::WriteWatch>(config_.base, config_.size);
  });
  return *watch_;
}

}  // namespace pm2::iso
