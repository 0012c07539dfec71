// Corruption fuzzing for the checkpoint container (state/checkpoint): a
// damaged snapshot must NEVER decode successfully and must never crash the
// decoder -- and a store must roll back to the newest intact snapshot (or
// report failure), not serve garbage.
//
// The v3 seal makes every single-byte flip detectable: magic and version are
// checked outright, each section's CRC covers id + size + payload, and
// trailing bytes after the last declared section reject the file (so a
// flipped section-count can't truncate validation early).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "core/stokes_simulation.hpp"
#include "dist/distributions.hpp"
#include "sdc/sdc.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

namespace fs = std::filesystem;

SimulationConfig base_config() {
  SimulationConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 32;
  cfg.dt = 1e-4;
  return cfg;
}

NodeSimulator default_node(int gpus = 2) {
  return NodeSimulator(CpuModelConfig{}, GpuSystemConfig::uniform(gpus));
}

ParticleSet test_bodies(std::size_t n = 400) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  return plummer(n, rng, opt);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

std::uint32_t u32_at(const std::vector<std::uint8_t>& bytes, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof v);
  return v;
}

std::uint64_t u64_at(const std::vector<std::uint8_t>& bytes, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof v);
  return v;
}

// Walks the container structure of an INTACT encoding: offsets of the header
// fields and of every section header / payload start / section end. The
// returned list ends at bytes.size().
std::vector<std::size_t> section_boundaries(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> b{0, 4, 8};
  std::size_t off = 12;
  const std::uint32_t count = u32_at(bytes, 8);
  for (std::uint32_t i = 0; i < count; ++i) {
    b.push_back(off);                           // section id
    b.push_back(off + 4);                       // section size
    b.push_back(off + 12);                      // section crc
    const std::uint64_t size = u64_at(bytes, off + 4);
    b.push_back(off + 16);                      // payload start
    off += 16 + size;
    b.push_back(off);                           // section end
  }
  EXPECT_EQ(off, bytes.size());
  return b;
}

// Offset of the header of section `id` in an intact encoding.
std::size_t section_header(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t id) {
  std::size_t off = 12;
  for (std::uint32_t i = 0; i < u32_at(bytes, 8); ++i) {
    if (u32_at(bytes, off) == id) return off;
    off += 16 + u64_at(bytes, off + 4);
  }
  ADD_FAILURE() << "no section " << id;
  return 0;
}

// Recomputes the CRC of the section whose header starts at `hdr`, so an
// edited payload reaches the field decoders instead of the CRC check.
void reseal(std::vector<std::uint8_t>& bytes, std::size_t hdr) {
  const std::uint64_t size = u64_at(bytes, hdr + 4);
  const std::span<const std::uint8_t> head(bytes.data() + hdr, 12);
  const std::span<const std::uint8_t> payload(bytes.data() + hdr + 16, size);
  const std::uint32_t crc = crc32_extend(crc32(head), payload);
  std::memcpy(bytes.data() + hdr + 12, &crc, sizeof crc);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.good()) << path;
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

SimCheckpoint make_checkpoint(int steps = 3) {
  GravitySimulation sim(base_config(), default_node(), test_bodies());
  sim.run(steps);
  return sim.checkpoint();
}

TEST(CheckpointFuzz, IntactEncodingRoundTrips) {
  const SimCheckpoint ckpt = make_checkpoint();
  const auto bytes = encode_checkpoint(ckpt);
  std::string error;
  const auto decoded = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->step, ckpt.step);
  EXPECT_EQ(decoded->bodies.size(), ckpt.bodies.size());
}

TEST(CheckpointFuzz, EveryByteFlipIsDetected) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  ASSERT_GT(bytes.size(), 64u);

  // Every structural boundary plus a stride-sampled sweep of the interior.
  std::vector<std::size_t> offsets = section_boundaries(bytes);
  offsets.pop_back();  // == bytes.size()
  for (std::size_t off = 0; off < bytes.size(); off += 97)
    offsets.push_back(off);
  offsets.push_back(bytes.size() - 1);

  for (std::size_t off : offsets) {
    auto mutant = bytes;
    mutant[off] ^= 0xA5;
    std::string error;
    const auto decoded = decode_checkpoint(mutant, &error);
    EXPECT_FALSE(decoded.has_value())
        << "byte flip at offset " << off << " decoded successfully";
    EXPECT_FALSE(error.empty()) << "no error for flip at offset " << off;
  }
}

TEST(CheckpointFuzz, EveryTruncationIsDetected) {
  const auto bytes = encode_checkpoint(make_checkpoint());

  std::vector<std::size_t> lengths = section_boundaries(bytes);
  lengths.pop_back();  // full length is the valid file
  for (std::size_t len : {std::size_t{1}, std::size_t{5}, std::size_t{13},
                          bytes.size() / 2, bytes.size() - 1})
    lengths.push_back(len);
  for (std::size_t len = 0; len < bytes.size(); len += 97)
    lengths.push_back(len);

  for (std::size_t len : lengths) {
    auto mutant = bytes;
    mutant.resize(len);
    std::string error;
    EXPECT_FALSE(decode_checkpoint(mutant, &error).has_value())
        << "truncation to " << len << " of " << bytes.size()
        << " decoded successfully";
  }
}

TEST(CheckpointFuzz, AppendedTrailingBytesAreDetected) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  auto mutant = bytes;
  mutant.push_back(0);
  std::string error;
  EXPECT_FALSE(decode_checkpoint(mutant, &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

// A count whose product with a per-element byte size wraps past 2^64 must be
// rejected as malformed, never handed to vector::resize.
TEST(CheckpointFuzz, WrappingCountsAreRejected) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  struct Case {
    std::uint32_t section;
    std::size_t offset;     // of the count within the payload
    std::uint64_t element;  // bytes per element a naive bound multiplies by
  };
  // Bodies: the position count leads (24-byte Vec3). Tree: the node count
  // follows leaf_capacity, max_depth, root_center and root_half (32 bytes
  // was the old per-node bound). Health: the GPU count leads (9 bytes each).
  for (const Case c : {Case{2, 0, 24}, Case{5, 40, 32}, Case{7, 0, 9}}) {
    const std::uint64_t n =
        std::numeric_limits<std::uint64_t>::max() / c.element + 1;
    ASSERT_LT(n * c.element, 64u) << "product must wrap";
    auto mutant = bytes;
    const std::size_t hdr = section_header(mutant, c.section);
    std::memcpy(mutant.data() + hdr + 16 + c.offset, &n, sizeof n);
    reseal(mutant, hdr);
    std::string error;
    EXPECT_FALSE(decode_checkpoint(mutant, &error).has_value());
    EXPECT_EQ(error, "malformed section " + std::to_string(c.section));
  }
}

// A known section must end exactly after its fields: a CRC-valid meta
// payload with 8 bytes appended is malformed, not silently accepted.
TEST(CheckpointFuzz, LeftoverSectionBytesAreRejected) {
  auto mutant = encode_checkpoint(make_checkpoint());
  const std::size_t hdr = section_header(mutant, 1);
  const std::uint64_t size = u64_at(mutant, hdr + 4);
  mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(hdr + 16 + size),
                8, 0);
  const std::uint64_t grown = size + 8;
  std::memcpy(mutant.data() + hdr + 4, &grown, sizeof grown);
  reseal(mutant, hdr);
  std::string error;
  EXPECT_FALSE(decode_checkpoint(mutant, &error).has_value());
  EXPECT_EQ(error, "malformed section 1");
}

// The meta step is an i64 on the wire (after the u32 kind) and an int in
// memory: a value outside [0, INT_MAX] must be rejected, not narrowed.
TEST(CheckpointFuzz, OutOfRangeStepIsRejected) {
  const auto bytes = encode_checkpoint(make_checkpoint());
  const auto with_step = [&](std::int64_t step) {
    auto mutant = bytes;
    const std::size_t hdr = section_header(mutant, 1);
    std::memcpy(mutant.data() + hdr + 16 + 4, &step, sizeof step);
    reseal(mutant, hdr);
    return mutant;
  };
  std::string error;
  const auto max = decode_checkpoint(
      with_step(std::numeric_limits<int>::max()), &error);
  ASSERT_TRUE(max.has_value()) << error;
  EXPECT_EQ(max->step, std::numeric_limits<int>::max());
  for (const std::int64_t step : {(std::int64_t{1} << 32) + 5,
                                  std::int64_t{-1}}) {
    error.clear();
    EXPECT_FALSE(decode_checkpoint(with_step(step), &error).has_value())
        << "step " << step;
    EXPECT_EQ(error, "malformed section 1") << "step " << step;
  }
}

void add_rng_words(SimCheckpoint& ckpt, std::uint64_t seed) {
  Rng rng(seed);
  for (int stream = 0; stream < 2; ++stream) {
    rng.next_u64();
    const auto state = rng.state();
    ckpt.rng_words.insert(ckpt.rng_words.end(), state.begin(), state.end());
  }
}

// Pins the v7 wire format: size and FNV-1a hash of the encoding, and a
// decode -> encode round trip that gives the same bytes back.
void expect_pinned_encoding(const SimCheckpoint& ckpt, std::size_t size,
                            std::uint64_t hash) {
  const auto bytes = encode_checkpoint(ckpt);
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(sdc_checksum_bytes(bytes.data(), bytes.size()), hash);
  std::string error;
  const auto back = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(encode_checkpoint(*back) == bytes);
}

TEST(CheckpointFuzz, GravityEncodingIsPinned) {
  SimulationConfig cfg = base_config();
  cfg.faults.gpu_loss(2, 1);
  GravitySimulation sim(cfg, default_node(), test_bodies());
  sim.run(4);
  SimCheckpoint ckpt = sim.checkpoint();
  add_rng_words(ckpt, 5);
  expect_pinned_encoding(ckpt, 65542, 14016157665829544486ull);
}

TEST(CheckpointFuzz, StokesEncodingIsPinned) {
  Rng rng(95);
  std::vector<Vec3> pos;
  for (int i = 0; i < 300; ++i)
    pos.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1),
                   rng.uniform(2, 4)});
  StokesSimulationConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.epsilon = 0.05;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;
  StokesSimulation sim(cfg, default_node(), pos, constant_force({0, 0, -1}));
  sim.run(4);
  SimCheckpoint ckpt = sim.checkpoint();
  add_rng_words(ckpt, 6);
  expect_pinned_encoding(ckpt, 23574, 8485870527683429170ull);
}

TEST(CheckpointFuzz, StoreFallsBackToPreviousGoodSnapshot) {
  GravitySimulation sim(base_config(), default_node(), test_bodies());
  CheckpointStore store(fresh_dir("fuzz_store"), /*keep=*/3);
  sim.run(2);
  const SimCheckpoint older = sim.checkpoint();
  ASSERT_TRUE(store.save(older));
  sim.run(2);
  ASSERT_TRUE(store.save(sim.checkpoint()));

  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);  // newest first
  auto bytes = read_file(files[0]);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_file(files[0], bytes);

  std::string error;
  const auto loaded = store.load_latest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->step, older.step);

  // Corrupt the older one too: nothing valid remains.
  auto bytes2 = read_file(files[1]);
  bytes2.resize(bytes2.size() / 3);
  write_file(files[1], bytes2);
  EXPECT_FALSE(store.load_latest(&error).has_value());
}

}  // namespace
}  // namespace afmm
