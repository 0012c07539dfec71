#include "state/shard_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "state/checkpoint_detail.hpp"
#include "state/serial.hpp"

namespace afmm {

using namespace ckpt;

namespace {

namespace fs = std::filesystem;

enum class ShardSection : std::uint32_t {
  kControl = 1,
  kTree = 2,
  kCluster = 3,
  kShardTable = 4,
  kShardData = 5,
};

struct ShardFileEntry {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint64_t file_size = 0;
  std::uint32_t file_crc = 0;
};

// Which per-body arrays the checkpoint carries (gravity has all of them,
// Stokes has no masses and no derived fields). The manifest records the
// flags; every shard file must then carry matching slices.
struct BodyArrayFlags {
  bool velocities = false;
  bool masses = false;
  bool accel = false;
  bool potential = false;
};

void set_error(std::string* error, const std::string& what) {
  if (error) *error = what;
}

void append_section(ByteWriter& out, ShardSection id, ByteWriter&& payload) {
  const auto& bytes = payload.buffer();
  out.u32(static_cast<std::uint32_t>(id));
  out.u64(bytes.size());
  out.u32(section_crc(static_cast<std::uint32_t>(id), bytes));
  out.bytes(bytes.data(), bytes.size());
}

bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       std::string* error) {
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

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + got);
  std::fclose(f);
  return bytes;
}

// ---- shard file ------------------------------------------------------------

std::vector<std::uint8_t> encode_shard_file(const ShardedCheckpoint& ckpt,
                                            int k, std::uint32_t begin,
                                            std::uint32_t end,
                                            const BodyArrayFlags& flags) {
  const SimCheckpoint& g = ckpt.global;
  const std::uint32_t n = end - begin;

  ByteWriter payload;
  payload.u32(static_cast<std::uint32_t>(k));
  payload.u32(begin);
  payload.u32(end);
  payload.i64(g.step);

  std::vector<std::uint32_t> perm_slice(n);
  std::vector<Vec3> sorted_slice(n);
  std::vector<Vec3> pos(n), vel(flags.velocities ? n : 0),
      acc(flags.accel ? n : 0);
  std::vector<double> mass(flags.masses ? n : 0),
      pot(flags.potential ? n : 0);
  for (std::uint32_t t = begin; t < end; ++t) {
    const std::uint32_t i = t - begin;
    const std::uint32_t orig = g.tree.perm[t];
    perm_slice[i] = orig;
    sorted_slice[i] = g.tree.sorted_pos[t];
    pos[i] = g.bodies.positions[orig];
    if (flags.velocities) vel[i] = g.bodies.velocities[orig];
    if (flags.masses) mass[i] = g.bodies.masses[orig];
    if (flags.accel) acc[i] = g.accel[orig];
    if (flags.potential) pot[i] = g.potential[orig];
  }
  put_u32s(payload, perm_slice);
  put_vec3s(payload, sorted_slice);
  put_vec3s(payload, pos);
  put_vec3s(payload, vel);
  put_f64s(payload, mass);
  put_vec3s(payload, acc);
  put_f64s(payload, pot);

  ByteWriter out;
  out.u32(kShardMagic);
  out.u32(kShardVersion);
  out.u32(1);
  append_section(out, ShardSection::kShardData, std::move(payload));
  return out.take();
}

// Validates + merges one shard file's slices into the global checkpoint
// being reassembled. `total` is the body count the manifest declared.
bool decode_shard_file(std::span<const std::uint8_t> data, int k,
                       const ShardFileEntry& entry, std::uint32_t total,
                       const BodyArrayFlags& flags, std::int64_t step,
                       SimCheckpoint& g) {
  ByteReader header(data);
  if (header.u32() != kShardMagic || header.u32() != kShardVersion)
    return false;
  if (header.u32() != 1) return false;
  const std::uint32_t id = header.u32();
  const std::uint64_t size = header.u64();
  const std::uint32_t crc = header.u32();
  if (!header.ok() || size > header.remaining()) return false;
  const auto payload = header.bytes(size);
  if (section_crc(id, payload) != crc) return false;
  if (header.remaining() != 0) return false;
  if (static_cast<ShardSection>(id) != ShardSection::kShardData) return false;

  ByteReader r(payload);
  if (r.u32() != static_cast<std::uint32_t>(k)) return false;
  const std::uint32_t begin = r.u32();
  const std::uint32_t end = r.u32();
  if (begin != entry.begin || end != entry.end || r.i64() != step)
    return false;
  const std::uint32_t n = end - begin;

  std::vector<std::uint32_t> perm_slice;
  std::vector<Vec3> sorted_slice, pos, vel, acc;
  std::vector<double> mass, pot;
  if (!get_u32s(r, perm_slice) || !get_vec3s(r, sorted_slice) ||
      !get_vec3s(r, pos) || !get_vec3s(r, vel) || !get_f64s(r, mass) ||
      !get_vec3s(r, acc) || !get_f64s(r, pot) || !r.ok())
    return false;
  if (perm_slice.size() != n || sorted_slice.size() != n || pos.size() != n)
    return false;
  if (vel.size() != (flags.velocities ? n : 0) ||
      mass.size() != (flags.masses ? n : 0) ||
      acc.size() != (flags.accel ? n : 0) ||
      pot.size() != (flags.potential ? n : 0))
    return false;

  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t orig = perm_slice[i];
    if (orig >= total) return false;  // corrupt permutation entry
    const std::uint32_t t = begin + i;
    g.tree.perm[t] = orig;
    g.tree.sorted_pos[t] = sorted_slice[i];
    g.bodies.positions[orig] = pos[i];
    if (flags.velocities) g.bodies.velocities[orig] = vel[i];
    if (flags.masses) g.bodies.masses[orig] = mass[i];
    if (flags.accel) g.accel[orig] = acc[i];
    if (flags.potential) g.potential[orig] = pot[i];
  }
  return true;
}

// ---- manifest --------------------------------------------------------------

std::vector<std::uint8_t> encode_manifest(
    const ShardedCheckpoint& ckpt, const BodyArrayFlags& flags,
    const std::vector<ShardFileEntry>& entries) {
  const SimCheckpoint& g = ckpt.global;

  ByteWriter control;
  control.u32(static_cast<std::uint32_t>(g.kind));
  control.i64(g.step);
  control.u64(g.bodies.size());
  control.u8(g.has_observed ? 1 : 0);
  put_observed(control, g.observed);
  put_balancer(control, g.balancer);
  put_health(control, g.health);
  control.u64(g.injector.next_event);
  control.i32(g.injector.transfer_window_end);
  control.u64(g.injector.num_events);
  put_u64s(control, g.rng_words);
  control.u8(flags.velocities ? 1 : 0);
  control.u8(flags.masses ? 1 : 0);
  control.u8(flags.accel ? 1 : 0);
  control.u8(flags.potential ? 1 : 0);

  // The tree's control skeleton only; the O(N) body arrays live in the
  // shard files.
  OctreeSnapshot skeleton = g.tree;
  skeleton.sorted_pos.clear();
  skeleton.perm.clear();
  ByteWriter tree;
  put_tree(tree, skeleton);

  ByteWriter cluster;
  cluster.u64(ckpt.cluster_blob.size());
  cluster.bytes(ckpt.cluster_blob.data(), ckpt.cluster_blob.size());

  ByteWriter table;
  table.u64(entries.size());
  for (const auto& e : entries) {
    table.u32(e.begin);
    table.u32(e.end);
    table.u64(e.file_size);
    table.u32(e.file_crc);
  }

  ByteWriter out;
  out.u32(kShardMagic);
  out.u32(kShardVersion);
  out.u32(4);
  append_section(out, ShardSection::kControl, std::move(control));
  append_section(out, ShardSection::kTree, std::move(tree));
  append_section(out, ShardSection::kCluster, std::move(cluster));
  append_section(out, ShardSection::kShardTable, std::move(table));
  return out.take();
}

struct ManifestData {
  ShardedCheckpoint ckpt;  // bodies/tree arrays sized but unfilled
  BodyArrayFlags flags;
  std::uint64_t total_bodies = 0;
  std::vector<ShardFileEntry> entries;
};

std::optional<ManifestData> decode_manifest(
    std::span<const std::uint8_t> data) {
  ByteReader header(data);
  if (header.u32() != kShardMagic || header.u32() != kShardVersion)
    return std::nullopt;
  const std::uint32_t sections = header.u32();
  if (!header.ok()) return std::nullopt;

  ManifestData m;
  bool have_control = false, have_tree = false, have_table = false;
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = header.u32();
    const std::uint64_t size = header.u64();
    const std::uint32_t crc = header.u32();
    if (!header.ok() || size > header.remaining()) return std::nullopt;
    const auto payload = header.bytes(size);
    if (section_crc(id, payload) != crc) return std::nullopt;
    ByteReader r(payload);
    bool ok = true;
    switch (static_cast<ShardSection>(id)) {
      case ShardSection::kControl: {
        SimCheckpoint& g = m.ckpt.global;
        const std::uint32_t kind = r.u32();
        if (kind > static_cast<std::uint32_t>(SimKind::kStokes)) ok = false;
        g.kind = static_cast<SimKind>(kind);
        g.step = static_cast<int>(r.i64());
        m.total_bodies = r.u64();
        g.has_observed = r.u8() != 0;
        g.observed = get_observed(r);
        ok = ok && get_balancer(r, g.balancer) && get_health(r, g.health);
        g.injector.next_event = r.u64();
        g.injector.transfer_window_end = r.i32();
        g.injector.num_events = r.u64();
        ok = ok && get_u64s(r, g.rng_words);
        m.flags.velocities = r.u8() != 0;
        m.flags.masses = r.u8() != 0;
        m.flags.accel = r.u8() != 0;
        m.flags.potential = r.u8() != 0;
        have_control = ok && r.ok();
        break;
      }
      case ShardSection::kTree:
        ok = get_tree(r, m.ckpt.global.tree);
        // The skeleton must arrive with empty body arrays (they are
        // reassembled from the shard files).
        ok = ok && m.ckpt.global.tree.sorted_pos.empty() &&
             m.ckpt.global.tree.perm.empty();
        have_tree = ok;
        break;
      case ShardSection::kCluster: {
        const std::uint64_t len = r.u64();
        if (len > r.remaining()) {
          ok = false;
          break;
        }
        const auto raw = r.bytes(len);
        m.ckpt.cluster_blob.assign(raw.begin(), raw.end());
        ok = r.ok();
        break;
      }
      case ShardSection::kShardTable: {
        const std::uint64_t num = r.u64();
        if (num * 20 > r.remaining()) {
          ok = false;
          break;
        }
        m.entries.resize(num);
        for (auto& e : m.entries) {
          e.begin = r.u32();
          e.end = r.u32();
          e.file_size = r.u64();
          e.file_crc = r.u32();
        }
        ok = r.ok();
        have_table = ok;
        break;
      }
      default:
        break;  // unknown section: skip (forward compatibility)
    }
    if (!ok) return std::nullopt;
  }
  if (header.remaining() != 0) return std::nullopt;
  if (!have_control || !have_tree || !have_table) return std::nullopt;

  // Structural cross-checks: contiguous ranges covering the declared count.
  std::uint32_t cursor = 0;
  for (const auto& e : m.entries) {
    if (e.begin != cursor || e.end < e.begin) return std::nullopt;
    cursor = e.end;
  }
  if (cursor != m.total_bodies) return std::nullopt;
  for (const auto& e : m.entries)
    m.ckpt.ranges.emplace_back(e.begin, e.end);
  return m;
}

std::string owned_name(const std::string& owner, const char* bare) {
  return owner.empty() ? std::string(bare) : owner + "_" + bare;
}

int step_of_manifest(const std::string& path, const std::string& owner) {
  // [<owner>_]manifest_<step>.afms
  const std::string name = fs::path(path).filename().string();
  const std::size_t at = owned_name(owner, "manifest_").size();
  return std::atoi(name.substr(at, 10).c_str());
}

std::string shard_path(const std::string& dir, const std::string& owner,
                       int step, int k) {
  char name[48];
  std::snprintf(name, sizeof name, "shard_%010d_%04d.afms", step, k);
  return (fs::path(dir) / owned_name(owner, name)).string();
}

}  // namespace

ShardStore::ShardStore(std::string dir, int keep, std::string owner)
    : dir_(std::move(dir)), keep_(std::max(1, keep)), owner_(std::move(owner)) {
  if (!valid_store_owner(owner_))
    throw std::invalid_argument(
        "store owner '" + owner_ +
        "' invalid: only [A-Za-z0-9.-] allowed (no '_', which would make the "
        "name parse as another owner's)");
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::vector<std::string> ShardStore::manifests() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (match_owned_snapshot(name, owner_, "manifest_", {10}, ".afms"))
      out.push_back(entry.path().string());
  }
  std::sort(out.rbegin(), out.rend());  // zero-padded steps: newest first
  return out;
}

bool ShardStore::save(const ShardedCheckpoint& ckpt, std::string* error) {
  const SimCheckpoint& g = ckpt.global;
  if (ckpt.ranges.empty() ||
      ckpt.ranges.back().second != g.tree.perm.size()) {
    set_error(error, "shard ranges do not cover the body array");
    return false;
  }
  BodyArrayFlags flags;
  flags.velocities = !g.bodies.velocities.empty();
  flags.masses = !g.bodies.masses.empty();
  flags.accel = !g.accel.empty();
  flags.potential = !g.potential.empty();

  // Shard files first; the manifest rename below is the commit point.
  std::vector<ShardFileEntry> entries(ckpt.ranges.size());
  for (std::size_t k = 0; k < ckpt.ranges.size(); ++k) {
    const auto bytes = encode_shard_file(ckpt, static_cast<int>(k),
                                         ckpt.ranges[k].first,
                                         ckpt.ranges[k].second, flags);
    entries[k].begin = ckpt.ranges[k].first;
    entries[k].end = ckpt.ranges[k].second;
    entries[k].file_size = bytes.size();
    entries[k].file_crc = crc32(bytes);
    if (!write_file_atomic(
            shard_path(dir_, owner_, g.step, static_cast<int>(k)), bytes,
            error))
      return false;
  }
  char name[32];
  std::snprintf(name, sizeof name, "manifest_%010d.afms", g.step);
  if (!write_file_atomic((fs::path(dir_) / owned_name(owner_, name)).string(),
                         encode_manifest(ckpt, flags, entries), error))
    return false;

  // Prune OUR coordinated sets beyond the keep budget (manifest + shards);
  // another owner's sets in the same directory are invisible to manifests()
  // and therefore never rotated away from under it.
  const auto all = manifests();
  for (std::size_t i = static_cast<std::size_t>(keep_); i < all.size(); ++i) {
    const int step = step_of_manifest(all[i], owner_);
    std::error_code ec;
    fs::remove(all[i], ec);
    for (int k = 0;; ++k) {
      const std::string p = shard_path(dir_, owner_, step, k);
      if (!fs::exists(p, ec)) break;
      fs::remove(p, ec);
    }
  }
  return true;
}

std::optional<ShardedCheckpoint> ShardStore::load_latest(
    std::string* error) const {
  std::string last_error = "no shard manifests in " + dir_;
  for (const auto& path : manifests()) {
    const auto bytes = read_file(path);
    if (!bytes) {
      last_error = path + ": unreadable";
      continue;
    }
    ByteReader header(*bytes);
    if (header.u32() == kShardMagic) {
      const std::uint32_t version = header.u32();
      if (header.ok() && version != kShardVersion) {
        last_error = path + ": format version " + std::to_string(version) +
                     " (expected " + std::to_string(kShardVersion) + ")";
        continue;
      }
    }
    auto m = decode_manifest(*bytes);
    if (!m) {
      last_error = path + ": corrupt manifest";
      continue;
    }
    // Size the arrays the shard files fill in.
    SimCheckpoint& g = m->ckpt.global;
    const auto total = static_cast<std::size_t>(m->total_bodies);
    g.tree.perm.resize(total);
    g.tree.sorted_pos.resize(total);
    g.bodies.positions.resize(total);
    if (m->flags.velocities) g.bodies.velocities.resize(total);
    if (m->flags.masses) g.bodies.masses.resize(total);
    if (m->flags.accel) g.accel.resize(total);
    if (m->flags.potential) g.potential.resize(total);

    bool ok = true;
    for (std::size_t k = 0; k < m->entries.size() && ok; ++k) {
      const auto shard_bytes =
          read_file(shard_path(dir_, owner_, g.step, static_cast<int>(k)));
      if (!shard_bytes || shard_bytes->size() != m->entries[k].file_size ||
          crc32(*shard_bytes) != m->entries[k].file_crc ||
          !decode_shard_file(*shard_bytes, static_cast<int>(k), m->entries[k],
                             static_cast<std::uint32_t>(total), m->flags,
                             g.step, g)) {
        last_error = path + ": shard " + std::to_string(k) + " invalid";
        ok = false;
      }
    }
    if (ok) return std::move(m->ckpt);
  }
  set_error(error, last_error);
  return std::nullopt;
}

}  // namespace afmm
