#include "state/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "state/serial.hpp"
#include "util/config_check.hpp"

namespace afmm {

namespace {

namespace fs = std::filesystem;

// ---- field lists ----------------------------------------------------------
//
// Each record lists its fields exactly once, in wire order, through
// `fields(a, record)`. The same list runs through WriteArchive to encode and
// through ReadArchive to decode, so the two directions cannot drift apart.
// A record is passed const when writing and mutable when reading.

template <class V, class T>
concept RecordOf = std::same_as<std::remove_const_t<V>, T>;

template <class A, RecordOf<Vec3> V>
void fields(A& a, V& v) {
  a(v.x, v.y, v.z);
}

template <class A, RecordOf<OpCounts> V>
void fields(A& a, V& c) {
  a(c.p2m, c.p2m_bodies, c.m2m, c.m2l, c.l2l, c.l2p, c.l2p_bodies,
    c.p2p_interactions, c.p2p_node_pairs);
}

template <class A, RecordOf<ObservedStepTimes> V>
void fields(A& a, V& t) {
  a(t.cpu_seconds, t.gpu_seconds, t.cpu_p2p_seconds, t.transfer_retries,
    t.counts, t.t_p2m, t.t_m2m, t.t_m2l, t.t_l2l, t.t_l2p);
}

template <class A, RecordOf<OctreeNode> V>
void fields(A& a, V& n) {
  a(n.center, n.half, n.parent, n.children, n.has_children, n.level,
    n.collapsed, n.begin, n.count);
}

template <class A, RecordOf<OctreeSnapshot> V>
void fields(A& a, V& t) {
  a(t.config.leaf_capacity, t.config.max_depth, t.config.root_center,
    t.config.root_half, t.nodes, t.sorted_pos, t.perm);
}

template <class A, RecordOf<LoadBalancerSnapshot> V>
void fields(A& a, V& b) {
  a.bounded(b.state, LbState::kObservation);
  a(b.S, b.search_lo, b.search_hi, b.search_steps, b.last_dominant,
    b.best_compute, b.reset_best_next, b.last_epoch, b.epoch_pending);
  auto& c = b.model.coefficients;
  a(c.p2m_per_body, c.m2m, c.m2l, c.l2l, c.l2p_per_body, c.p2p, c.p2p_cpu,
    c.cpu_efficiency, b.model.observations);
}

template <class A, RecordOf<GpuHealth> V>
void fields(A& a, V& g) {
  a(g.alive, g.clock_scale);
}

template <class A, RecordOf<MachineHealth> V>
void fields(A& a, V& h) {
  a(h.gpus, h.cpu_cores_available, h.cpu_cores_provisioned,
    h.transfer_fault_prob, h.transfer_seed, h.fault_epoch);
}

template <class A, RecordOf<FaultInjectorSnapshot> V>
void fields(A& a, V& i) {
  a(i.next_event, i.transfer_window_end, i.num_events, i.fired_mark);
}

// Vectors of these element types are flat PODs in the exact wire layout
// (little-endian host, no padding), so both archives copy them as one block.
template <class T>
constexpr bool kBlockCopy =
    std::is_same_v<T, double> || std::is_same_v<T, std::uint32_t> ||
    std::is_same_v<T, std::uint64_t> || std::is_same_v<T, Vec3>;
static_assert(sizeof(Vec3) == 3 * sizeof(double) &&
              std::is_trivially_copyable_v<Vec3>);

// Writes every field at its fixed width: bool as u8, an enum as u32, each
// vector as a u64 count followed by its elements.
class WriteArchive {
 public:
  explicit WriteArchive(ByteWriter& w) : w_(w) {}

  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  template <class E>
  void bounded(E e, E /*max*/) {
    w_.u32(static_cast<std::uint32_t>(e));
  }
  void as_i64(int v) { w_.i64(v); }

 private:
  void put(double v) { w_.f64(v); }
  void put(std::uint64_t v) { w_.u64(v); }
  void put(std::uint32_t v) { w_.u32(v); }
  void put(std::int32_t v) { w_.i32(v); }
  void put(bool v) { w_.u8(v ? 1 : 0); }
  template <class T, std::size_t N>
  void put(const std::array<T, N>& v) {
    for (const T& x : v) put(x);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    w_.u64(v.size());
    if constexpr (kBlockCopy<T>)
      w_.bytes(v.data(), v.size() * sizeof(T));
    else
      for (const T& x : v) put(x);
  }
  template <class R>
  void put(const R& record) {
    fields(*this, record);
  }

  ByteWriter& w_;
};

// Encoded size of one T; the bound a count of T is checked against.
template <class T>
std::size_t wire_size() {
  if constexpr (kBlockCopy<T>) {
    return sizeof(T);
  } else {
    ByteWriter w;
    WriteArchive a(w);
    a(T{});
    return w.size();
  }
}

// The inverse of WriteArchive over a bounds-checked ByteReader. Malformed
// input latches the reader's fail flag (an overrun, an enum out of range, a
// count larger than the bytes left could hold) and never throws.
class ReadArchive {
 public:
  explicit ReadArchive(ByteReader& r) : r_(r) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  template <class E>
  void bounded(E& e, E max) {
    const std::uint32_t v = r_.u32();
    if (v > static_cast<std::uint32_t>(max)) r_.fail();
    e = static_cast<E>(v);
  }
  // A value outside [0, INT_MAX] would not survive the narrowing to int.
  void as_i64(int& v) {
    const std::int64_t w = r_.i64();
    if (w < 0 || w > std::numeric_limits<int>::max()) r_.fail();
    v = static_cast<int>(w);
  }

 private:
  void get(double& v) { v = r_.f64(); }
  void get(std::uint64_t& v) { v = r_.u64(); }
  void get(std::uint32_t& v) { v = r_.u32(); }
  void get(std::int32_t& v) { v = r_.i32(); }
  void get(bool& v) { v = r_.u8() != 0; }
  template <class T, std::size_t N>
  void get(std::array<T, N>& v) {
    for (T& x : v) get(x);
  }
  template <class T>
  void get(std::vector<T>& v) {
    // Divide rather than multiply: n * wire_size can wrap past 2^64.
    const std::uint64_t n = r_.u64();
    if (n > r_.remaining() / wire_size<T>()) {
      r_.fail();
      return;
    }
    v.resize(n);
    if constexpr (kBlockCopy<T>) {
      // An empty vector's data() may be null, and memcpy(nullptr, ..., 0) is
      // undefined.
      const auto raw = r_.bytes(n * sizeof(T));
      if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
    } else {
      for (T& x : v) get(x);
    }
  }
  template <class R>
  void get(R& record) {
    fields(*this, record);
  }

  ByteReader& r_;
};

enum class SectionId : std::uint32_t {
  kMeta = 1,
  kBodies = 2,
  kDerived = 3,
  kObserved = 4,
  kTree = 5,
  kBalancer = 6,
  kHealth = 7,
  kInjector = 8,
  kRng = 9,
};
constexpr std::uint32_t kNumSections = 9;

constexpr std::uint32_t bit(SectionId id) {
  return 1u << static_cast<std::uint32_t>(id);
}
// Sections a checkpoint cannot be restored without.
constexpr std::uint32_t kRequiredSections =
    bit(SectionId::kMeta) | bit(SectionId::kBodies) | bit(SectionId::kTree) |
    bit(SectionId::kBalancer) | bit(SectionId::kHealth) |
    bit(SectionId::kInjector);

// The payload of section `id`; encode and decode both run through it. An
// unknown id lists nothing.
template <class A, RecordOf<SimCheckpoint> C>
void section(A& a, SectionId id, C& ckpt) {
  switch (id) {
    case SectionId::kMeta: {
      std::uint64_t body_count = ckpt.bodies.size();  // informational
      a.bounded(ckpt.kind, SimKind::kStokes);
      a.as_i64(ckpt.step);
      a(body_count);
      break;
    }
    case SectionId::kBodies:
      a(ckpt.bodies.positions, ckpt.bodies.velocities, ckpt.bodies.masses);
      break;
    case SectionId::kDerived:
      a(ckpt.accel, ckpt.potential);
      break;
    case SectionId::kObserved:
      a(ckpt.has_observed, ckpt.observed);
      break;
    case SectionId::kTree:
      a(ckpt.tree);
      break;
    case SectionId::kBalancer:
      a(ckpt.balancer);
      break;
    case SectionId::kHealth:
      a(ckpt.health);
      break;
    case SectionId::kInjector:
      a(ckpt.injector);
      break;
    case SectionId::kRng:
      a(ckpt.rng_words);
      break;
  }
}

// v3 seal: the CRC covers the section header (id, size) AND the payload, so
// corruption anywhere in the section record is caught -- a payload-only CRC
// let a flipped id byte reclassify a section as unknown (skipped "for forward
// compatibility") and decode a checkpoint missing one of its parts.
std::uint32_t section_crc(std::uint32_t id,
                          std::span<const std::uint8_t> payload) {
  ByteWriter hdr;
  hdr.u32(id);
  hdr.u64(payload.size());
  return crc32_extend(crc32(hdr.buffer()), payload);
}

void set_error(std::string* error, const std::string& what) {
  if (error) *error = what;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const SimCheckpoint& ckpt) {
  ByteWriter out;
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u32(kNumSections);
  for (std::uint32_t id = 1; id <= kNumSections; ++id) {
    ByteWriter payload;
    WriteArchive a(payload);
    section(a, static_cast<SectionId>(id), ckpt);
    const auto& bytes = payload.buffer();
    out.u32(id);
    out.u64(bytes.size());
    out.u32(section_crc(id, bytes));
    out.bytes(bytes.data(), bytes.size());
  }
  return out.take();
}

std::optional<SimCheckpoint> decode_checkpoint(
    std::span<const std::uint8_t> data, std::string* error) {
  ByteReader header(data);
  if (header.u32() != kCheckpointMagic) {
    set_error(error, "bad magic (not a checkpoint file)");
    return std::nullopt;
  }
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion) {
    set_error(error, "format version " + std::to_string(version) +
                         " (expected " + std::to_string(kCheckpointVersion) +
                         ")");
    return std::nullopt;
  }
  const std::uint32_t sections = header.u32();
  if (!header.ok()) {
    set_error(error, "truncated header");
    return std::nullopt;
  }

  SimCheckpoint ckpt;
  std::uint32_t seen = 0;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = header.u32();
    const std::uint64_t size = header.u64();
    const std::uint32_t crc = header.u32();
    if (!header.ok() || size > header.remaining()) {
      set_error(error, "truncated section " + std::to_string(id));
      return std::nullopt;
    }
    const auto payload = header.bytes(size);
    if (section_crc(id, payload) != crc) {
      set_error(error, "CRC mismatch in section " + std::to_string(id));
      return std::nullopt;
    }
    // Unknown ids list no fields and are skipped (forward compatibility).
    // A known section must end exactly after its fields: leftover bytes
    // mean the writer listed fields this reader does not.
    const bool known = id >= 1 && id <= kNumSections;
    ByteReader r(payload);
    ReadArchive a(r);
    section(a, static_cast<SectionId>(id), ckpt);
    if (!r.ok() || (known && r.remaining() != 0)) {
      set_error(error, "malformed section " + std::to_string(id));
      return std::nullopt;
    }
    if (known) seen |= bit(static_cast<SectionId>(id));
  }
  // Bytes past the declared sections mean the count itself is corrupt (a
  // flipped count byte would otherwise silently drop trailing sections).
  if (header.remaining() != 0) {
    set_error(error, "trailing bytes after last section");
    return std::nullopt;
  }
  if ((seen & kRequiredSections) != kRequiredSections) {
    set_error(error, "missing required section");
    return std::nullopt;
  }
  return ckpt;
}

bool save_checkpoint_file(const std::string& path, const SimCheckpoint& ckpt,
                          std::string* error) {
  const auto bytes = encode_checkpoint(ckpt);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    set_error(error, "cannot open " + tmp);
    return false;
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!wrote) {
    set_error(error, "short write to " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);  // atomic on POSIX
  if (ec) {
    set_error(error, "rename failed: " + ec.message());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<SimCheckpoint> load_checkpoint_file(const std::string& path,
                                                  std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + got);
  std::fclose(f);
  return decode_checkpoint(bytes, error);
}

namespace {

// True iff `name` is EXACTLY `[<owner>_]ckpt_<10 digits>.afmm`. Unlike a
// prefix test this rejects look-alikes such as owner "ckpt"'s
// `ckpt_ckpt_0000000042.afmm` in the bare store, or padded/garbled step
// fields, so a store can never adopt -- or rotate away -- a file it did not
// write.
bool is_owned_snapshot(const std::string& name, const std::string& owner) {
  const std::string prefix = owner.empty() ? "ckpt_" : owner + "_ckpt_";
  const std::string suffix = ".afmm";
  constexpr std::size_t kDigits = 10;
  if (name.size() != prefix.size() + kDigits + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0)
    return false;
  for (std::size_t i = prefix.size(); i < prefix.size() + kDigits; ++i)
    if (name[i] < '0' || name[i] > '9') return false;
  return name.compare(prefix.size() + kDigits, suffix.size(), suffix) == 0;
}

bool valid_store_owner(const std::string& owner) {
  for (char c : owner) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void require_valid_owner(const std::string& owner) {
  if (!valid_store_owner(owner))
    throw std::invalid_argument(
        "store owner '" + owner +
        "' invalid: only [A-Za-z0-9.-] allowed (no '_', which would make the "
        "name parse as another owner's)");
}

// Per-process registry backing CheckpointOwnerClaim. Keyed by the directory
// string exactly as the engine configured it -- the point is disambiguating
// engines that were handed the SAME config, not defeating aliased paths.
std::mutex& claim_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, std::set<std::string>>& claim_registry() {
  static std::map<std::string, std::set<std::string>> reg;
  return reg;
}

}  // namespace

CheckpointOwnerClaim CheckpointOwnerClaim::claim(const std::string& dir) {
  CheckpointOwnerClaim c;
  c.dir_ = dir;
  std::lock_guard<std::mutex> lock(claim_mutex());
  auto& owners = claim_registry()[dir];
  if (!owners.count("")) {
    c.owner_ = "";
  } else {
    for (int i = 1;; ++i) {
      std::string candidate = "e" + std::to_string(i);
      if (!owners.count(candidate)) {
        c.owner_ = std::move(candidate);
        break;
      }
    }
  }
  owners.insert(c.owner_);
  c.active_ = true;
  return c;
}

void CheckpointOwnerClaim::release() {
  if (!active_) return;
  active_ = false;
  std::lock_guard<std::mutex> lock(claim_mutex());
  auto it = claim_registry().find(dir_);
  if (it == claim_registry().end()) return;
  it->second.erase(owner_);
  if (it->second.empty()) claim_registry().erase(it);
}

CheckpointStore::CheckpointStore(std::string dir, int keep, std::string owner)
    : dir_(std::move(dir)), keep_(keep), owner_(std::move(owner)) {
  if (keep_ < 1)
    throw std::invalid_argument("CheckpointStore: keep must be >= 1, got " +
                                std::to_string(keep_));
  require_valid_owner(owner_);
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::vector<std::string> CheckpointStore::files() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (is_owned_snapshot(name, owner_))
      out.push_back(entry.path().string());
  }
  // Step numbers are zero-padded, so lexicographic descending = newest first.
  std::sort(out.rbegin(), out.rend());
  return out;
}

bool CheckpointStore::save(const SimCheckpoint& ckpt, std::string* error) {
  char name[32];
  std::snprintf(name, sizeof name, "ckpt_%010d.afmm", ckpt.step);
  const std::string file =
      owner_.empty() ? std::string(name) : owner_ + "_" + name;
  const std::string path = (fs::path(dir_) / file).string();
  if (!save_checkpoint_file(path, ckpt, error)) return false;
  const auto all = files();
  for (std::size_t i = static_cast<std::size_t>(keep_); i < all.size(); ++i) {
    std::error_code ec;
    fs::remove(all[i], ec);
  }
  return true;
}

std::optional<SimCheckpoint> CheckpointStore::load_latest(
    std::string* error) const {
  std::string last_error = "no snapshots in " + dir_;
  for (const auto& path : files()) {
    std::string file_error;
    if (auto ckpt = load_checkpoint_file(path, &file_error)) return ckpt;
    last_error = path + ": " + file_error;
  }
  set_error(error, last_error);
  return std::nullopt;
}

void ResilienceConfig::validate() const {
  const ConfigCheck check("ResilienceConfig");
  check.at_least("checkpoint_interval", checkpoint_interval, 0);
  check.at_least("checkpoint_keep", checkpoint_keep, 1);
  check.at_least("audit.interval", audit.interval, 0);
  check.at_least("audit.force_samples", audit.force_samples, 0);
  check.positive("audit.force_rel_tol", audit.force_rel_tol);
  check.positive("audit.leaf_capacity_slack", audit.leaf_capacity_slack);
  check.non_negative("audit.momentum_rel_tol", audit.momentum_rel_tol);
  check.non_negative("watchdog.wall_limit_seconds",
                     watchdog.wall_limit_seconds);
  check.non_negative("watchdog.virtual_limit_seconds",
                     watchdog.virtual_limit_seconds);
}

}  // namespace afmm
