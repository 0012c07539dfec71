#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/simulation.hpp"
#include "core/stokes_simulation.hpp"
#include "dist/distributions.hpp"
#include "state/serial.hpp"
#include "state/shard_store.hpp"
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
  cfg.grav_const = 1.0;
  cfg.softening = 1e-3;
  return cfg;
}

NodeSimulator default_node(int gpus = 2) {
  return NodeSimulator(CpuModelConfig{}, GpuSystemConfig::uniform(gpus));
}

ParticleSet test_bodies(std::size_t n = 1500) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  return plummer(n, rng, opt);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

void expect_same_record(const StepRecord& a, const StepRecord& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
  EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
  EXPECT_EQ(a.lb_seconds, b.lb_seconds);
  EXPECT_EQ(a.S, b.S);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.rebuilt, b.rebuilt);
  EXPECT_EQ(a.capability_shift, b.capability_shift);
  EXPECT_EQ(a.cpu_fallback, b.cpu_fallback);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
}

// A straight 2k-step run and a run checkpointed at k (through a full binary
// encode/decode) and resumed must produce bit-identical trajectories.
void check_restore_determinism(SimulationConfig cfg, int k) {
  const auto set = test_bodies();

  GravitySimulation straight(cfg, default_node(), set);
  const auto ref = straight.run(2 * k);

  GravitySimulation first_half(cfg, default_node(), set);
  const auto head = first_half.run(k);
  const auto bytes = encode_checkpoint(first_half.checkpoint());
  std::string error;
  const auto decoded = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;

  GravitySimulation resumed(cfg, default_node(), *decoded);
  ASSERT_EQ(resumed.steps_taken(), k);
  const auto tail = resumed.run(k);

  for (int i = 0; i < k; ++i) {
    expect_same_record(ref[static_cast<std::size_t>(i)],
                       head[static_cast<std::size_t>(i)]);
    expect_same_record(ref[static_cast<std::size_t>(k + i)],
                       tail[static_cast<std::size_t>(i)]);
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(straight.bodies().positions[i], resumed.bodies().positions[i]);
    EXPECT_EQ(straight.bodies().velocities[i], resumed.bodies().velocities[i]);
  }
  EXPECT_EQ(straight.balancer().state(), resumed.balancer().state());
  EXPECT_EQ(straight.balancer().current_S(), resumed.balancer().current_S());
}

TEST(Serial, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.14159);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  // Overrun latches the fail flag and yields zeros, never throws.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Serial, Crc32MatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const auto set = test_bodies(600);
  GravitySimulation sim(base_config(), default_node(), set);
  sim.run(5);

  const auto ckpt = sim.checkpoint();
  const auto bytes = encode_checkpoint(ckpt);
  std::string error;
  const auto back = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(back.has_value()) << error;

  EXPECT_EQ(back->kind, SimKind::kGravity);
  EXPECT_EQ(back->step, 5);
  ASSERT_EQ(back->bodies.size(), set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(back->bodies.positions[i], ckpt.bodies.positions[i]);
    EXPECT_EQ(back->bodies.velocities[i], ckpt.bodies.velocities[i]);
    EXPECT_EQ(back->bodies.masses[i], ckpt.bodies.masses[i]);
    EXPECT_EQ(back->accel[i], ckpt.accel[i]);
    EXPECT_EQ(back->potential[i], ckpt.potential[i]);
  }
  EXPECT_EQ(back->tree.nodes.size(), ckpt.tree.nodes.size());
  EXPECT_EQ(back->balancer.S, ckpt.balancer.S);
  EXPECT_EQ(back->balancer.state, ckpt.balancer.state);
  EXPECT_EQ(back->balancer.model.observations,
            ckpt.balancer.model.observations);
  EXPECT_EQ(back->health.gpus.size(), ckpt.health.gpus.size());
  EXPECT_EQ(back->injector.next_event, ckpt.injector.next_event);
  EXPECT_EQ(back->has_observed, ckpt.has_observed);
  EXPECT_EQ(back->observed.cpu_seconds, ckpt.observed.cpu_seconds);
}

TEST(Checkpoint, RngStateSurvivesRoundTrip) {
  Rng rng(123);
  rng.next_u64();
  rng.next_u64();
  SimCheckpoint ckpt;
  const auto state = rng.state();
  ckpt.rng_words.assign(state.begin(), state.end());
  const auto back = decode_checkpoint(encode_checkpoint(ckpt));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->rng_words.size(), 4u);
  Rng restored(1);
  restored.set_state({back->rng_words[0], back->rng_words[1],
                      back->rng_words[2], back->rng_words[3]});
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.next_u64(), rng.next_u64());
}

TEST(Checkpoint, RestoredRunIsBitIdentical) {
  check_restore_determinism(base_config(), 10);
}

TEST(Checkpoint, RestoredRunIsBitIdenticalUnderFaults) {
  auto cfg = base_config();
  // Faults on both sides of the checkpoint at step 10, plus a transfer-fault
  // window STRADDLING it -- the replay cursor and the per-step transfer seed
  // must both survive the round trip.
  cfg.faults.gpu_throttle(4, 0, 0.5)
      .transfer_faults(8, 0.5, 6)
      .gpu_loss(14, 0)
      .gpu_recovery(18, 1);
  check_restore_determinism(cfg, 10);
}

TEST(Checkpoint, RestoredRunIsBitIdenticalWithResilienceEnabled) {
  auto cfg = base_config();
  cfg.resilience.audit.interval = 3;
  cfg.resilience.checkpoint_interval = 5;
  check_restore_determinism(cfg, 10);
}

TEST(Checkpoint, VersionMismatchRejected) {
  // Older files (v5 still carried the overlap fields and two retired tree
  // bytes) and newer ones are refused by number, never misparsed.
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  const auto original = encode_checkpoint(sim.checkpoint());
  for (const std::uint32_t v : {kCheckpointVersion - 1, kCheckpointVersion + 1}) {
    auto bytes = original;
    bytes[4] = static_cast<std::uint8_t>(v);  // the version follows the magic
    std::string error;
    EXPECT_FALSE(decode_checkpoint(bytes, &error).has_value());
    EXPECT_NE(error.find("format version " + std::to_string(v)),
              std::string::npos)
        << error;
  }
}

TEST(Checkpoint, BadMagicRejected) {
  std::vector<std::uint8_t> junk(64, 0xAB);
  std::string error;
  EXPECT_FALSE(decode_checkpoint(junk, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Checkpoint, CorruptByteRejectedByCrc) {
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  auto bytes = encode_checkpoint(sim.checkpoint());
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  std::string error;
  EXPECT_FALSE(decode_checkpoint(bytes, &error).has_value());
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(Checkpoint, TruncationRejected) {
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  const auto bytes = encode_checkpoint(sim.checkpoint());
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{17}, std::size_t{3}}) {
    const std::span<const std::uint8_t> head(bytes.data(), cut);
    EXPECT_FALSE(decode_checkpoint(head).has_value()) << "cut=" << cut;
  }
}

TEST(CheckpointStore, SaveLoadAndPrune) {
  const std::string dir = fresh_dir("ckpt_store_prune");
  CheckpointStore store(dir, 2);
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  for (int i = 0; i < 4; ++i) {
    sim.step();
    auto ckpt = sim.checkpoint();
    std::string error;
    ASSERT_TRUE(store.save(ckpt, &error)) << error;
  }
  EXPECT_EQ(store.files().size(), 2u);  // pruned to keep
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 4);
}

TEST(CheckpointStore, TornWriteFallsBackToPreviousSnapshot) {
  const std::string dir = fresh_dir("ckpt_store_torn");
  CheckpointStore store(dir, 3);
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  sim.step();
  ASSERT_TRUE(store.save(sim.checkpoint()));
  sim.step();
  ASSERT_TRUE(store.save(sim.checkpoint()));

  // Kill mid-write: the newest snapshot is half there.
  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);
  fs::resize_file(files.front(), fs::file_size(files.front()) / 2);

  std::string error;
  const auto restored = store.load_latest(&error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->step, 1);  // the intact previous snapshot
}

TEST(CheckpointStore, CorruptedNewestFallsBack) {
  const std::string dir = fresh_dir("ckpt_store_corrupt");
  CheckpointStore store(dir, 3);
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  sim.step();
  ASSERT_TRUE(store.save(sim.checkpoint()));
  sim.step();
  ASSERT_TRUE(store.save(sim.checkpoint()));

  // Bit rot in the newest file.
  const auto files = store.files();
  {
    std::fstream f(files.front(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(files.front()) / 2));
    f.put('\xFF');
  }
  const auto restored = store.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->step, 1);
}

TEST(CheckpointStore, AllSnapshotsCorruptReportsError) {
  const std::string dir = fresh_dir("ckpt_store_hopeless");
  CheckpointStore store(dir, 3);
  std::string error;
  EXPECT_FALSE(store.load_latest(&error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Checkpoint, KindMismatchThrows) {
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  auto ckpt = sim.checkpoint();
  ckpt.kind = SimKind::kStokes;
  EXPECT_THROW(sim.restore(ckpt), std::invalid_argument);
}

TEST(Checkpoint, StokesRestoredRunIsBitIdentical) {
  Rng rng(95);
  std::vector<Vec3> pos;
  for (int i = 0; i < 900; ++i)
    pos.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1),
                   rng.uniform(2, 4)});

  StokesSimulationConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.epsilon = 0.05;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;
  cfg.faults.gpu_loss(8, 0);  // active fault on the far side of the snapshot
  const auto force = constant_force({0, 0, -1});

  StokesSimulation straight(cfg, default_node(), pos, force);
  const auto ref = straight.run(12);

  StokesSimulation half(cfg, default_node(), pos, force);
  half.run(6);
  const auto decoded = decode_checkpoint(encode_checkpoint(half.checkpoint()));
  ASSERT_TRUE(decoded.has_value());
  StokesSimulation resumed(cfg, default_node(), *decoded, force);
  const auto tail = resumed.run(6);

  for (int i = 0; i < 6; ++i)
    expect_same_record(ref[static_cast<std::size_t>(6 + i)],
                       tail[static_cast<std::size_t>(i)]);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(straight.positions()[i], resumed.positions()[i]);
    EXPECT_EQ(straight.velocities()[i], resumed.velocities()[i]);
  }
}

// ---- owner-namespaced stores (multi-tenant service) ------------------------

TEST(CheckpointStore, OwnerPrefixesFilenames) {
  const std::string dir = fresh_dir("ckpt_owner_prefix");
  CheckpointStore store(dir, 3, "sA");
  EXPECT_EQ(store.owner(), "sA");
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  for (int i = 0; i < 2; ++i) {
    sim.step();
    ASSERT_TRUE(store.save(sim.checkpoint()));
  }
  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);
  for (const auto& f : files) {
    const std::string name = fs::path(f).filename().string();
    EXPECT_EQ(name.rfind("sA_ckpt_", 0), 0u) << name;
  }
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 2);
}

TEST(CheckpointStore, OwnersAreIsolatedInOneDirectory) {
  const std::string dir = fresh_dir("ckpt_owner_isolation");
  CheckpointStore a(dir, 1, "a");
  CheckpointStore b(dir, 1, "b");
  CheckpointStore legacy(dir, 1);
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  sim.step();
  ASSERT_TRUE(a.save(sim.checkpoint()));
  ASSERT_TRUE(b.save(sim.checkpoint()));
  ASSERT_TRUE(legacy.save(sim.checkpoint()));
  sim.step();
  // a rotates (keep=1) without touching b's or the legacy store's snapshot.
  ASSERT_TRUE(a.save(sim.checkpoint()));
  EXPECT_EQ(a.files().size(), 1u);
  EXPECT_EQ(b.files().size(), 1u);
  EXPECT_EQ(legacy.files().size(), 1u);
  EXPECT_EQ(a.load_latest()->step, 2);
  EXPECT_EQ(b.load_latest()->step, 1);
  EXPECT_EQ(legacy.load_latest()->step, 1);
}

TEST(CheckpointStore, StrictMatchingRejectsLookAlikeNames) {
  // Regression guard: an owner named "ckpt" writes ckpt_ckpt_<step>.afmm. A
  // loose starts-with("ckpt_") match -- the pre-owner behavior -- would list
  // that file in the UNOWNED store and corrupt its rotation; the strict
  // matcher requires exactly one 10-digit group after the stem.
  const std::string dir = fresh_dir("ckpt_lookalike");
  CheckpointStore owned(dir, 3, "ckpt");
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  sim.step();
  ASSERT_TRUE(owned.save(sim.checkpoint()));
  ASSERT_EQ(owned.files().size(), 1u);

  CheckpointStore legacy(dir, 3);
  EXPECT_TRUE(legacy.files().empty());

  // Malformed bare names are rejected too (wrong digit count, extra suffix).
  std::ofstream(dir + "/ckpt_12345.afmm") << "x";
  std::ofstream(dir + "/ckpt_0000000001.afmm.bak") << "x";
  EXPECT_TRUE(legacy.files().empty());
  EXPECT_EQ(owned.files().size(), 1u);
}

TEST(CheckpointStore, InvalidOwnerRejected) {
  const std::string dir = fresh_dir("ckpt_bad_owner");
  EXPECT_THROW(CheckpointStore(dir, 2, "bad_owner"), std::invalid_argument);
  EXPECT_THROW(ShardStore(dir, 2, "has space"), std::invalid_argument);
  EXPECT_NO_THROW(CheckpointStore(dir, 2, "A-9.x"));
}

TEST(CheckpointStore, OwnerClaimAssignsDistinctNamespaces) {
  const std::string dir = fresh_dir("ckpt_claim");
  auto c1 = CheckpointOwnerClaim::claim(dir);
  EXPECT_TRUE(c1.active());
  EXPECT_EQ(c1.owner(), "");  // first claimant keeps the legacy bare names
  {
    auto c2 = CheckpointOwnerClaim::claim(dir);
    EXPECT_EQ(c2.owner(), "e1");
    auto c3 = CheckpointOwnerClaim::claim(dir);
    EXPECT_EQ(c3.owner(), "e2");
  }
  // c2/c3 released on scope exit; their namespaces are reusable.
  auto c4 = CheckpointOwnerClaim::claim(dir);
  EXPECT_EQ(c4.owner(), "e1");

  CheckpointOwnerClaim moved = std::move(c1);
  EXPECT_TRUE(moved.active());
  EXPECT_FALSE(c1.active());  // NOLINT(bugprone-use-after-move): deliberate
}

TEST(CheckpointStore, EngineAutoClaimAvoidsSharedDirCollision) {
  // Two engines configured with the SAME checkpoint dir (the default-config
  // trap this satellite fixes): each auto-claims its own namespace, so
  // neither clobbers or rotates away the other's snapshots.
  const std::string dir = fresh_dir("ckpt_shared_dir");
  auto cfg = base_config();
  cfg.resilience.checkpoint_interval = 1;
  cfg.resilience.checkpoint_dir = dir;
  cfg.resilience.checkpoint_keep = 3;
  GravitySimulation sim1(cfg, default_node(), test_bodies(300));
  GravitySimulation sim2(cfg, default_node(), test_bodies(400));
  sim1.run(2);
  sim2.run(3);
  ASSERT_NE(sim1.store(), nullptr);
  ASSERT_NE(sim2.store(), nullptr);
  EXPECT_NE(sim1.store()->owner(), sim2.store()->owner());
  EXPECT_EQ(sim1.store()->load_latest()->step, 2);
  EXPECT_EQ(sim2.store()->load_latest()->step, 3);
}

TEST(ShardStore, OwnerPrefixesAndIsolation) {
  const std::string dir = fresh_dir("shard_owner");
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  sim.step();
  ShardedCheckpoint ckpt;
  ckpt.global = sim.checkpoint();
  ckpt.cluster_blob = {1, 2, 3};
  ckpt.ranges = {{0, 150}, {150, 300}};

  ShardStore owned(dir, 2, "n0");
  EXPECT_EQ(owned.owner(), "n0");
  std::string error;
  ASSERT_TRUE(owned.save(ckpt, &error)) << error;
  ASSERT_EQ(owned.manifests().size(), 1u);
  EXPECT_EQ(fs::path(owned.manifests()[0]).filename().string().rfind(
                "n0_manifest_", 0),
            0u);

  ShardStore legacy(dir, 2);
  EXPECT_TRUE(legacy.manifests().empty());
  const auto back = owned.load_latest(&error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->global.step, 1);
  EXPECT_EQ(back->cluster_blob, ckpt.cluster_blob);
}

TEST(ShardStore, OlderVersionRejectedByNumber) {
  const std::string dir = fresh_dir("shard_version");
  GravitySimulation sim(base_config(), default_node(), test_bodies(300));
  ShardedCheckpoint ckpt;
  ckpt.global = sim.checkpoint();
  ckpt.ranges = {{0, 300}};
  ShardStore store(dir, 1);
  std::string error;
  ASSERT_TRUE(store.save(ckpt, &error)) << error;
  ASSERT_EQ(store.manifests().size(), 1u);
  const std::string manifest = store.manifests()[0];
  std::vector<char> bytes;
  {
    std::ifstream in(manifest, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 8u);
  bytes[4] = static_cast<char>(kShardVersion - 1);  // version after magic
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(store.load_latest(&error).has_value());
  EXPECT_NE(error.find("format version " + std::to_string(kShardVersion - 1)),
            std::string::npos)
      << error;
}

TEST(Checkpoint, SimulationStoreWritesOnCadence) {
  const std::string dir = fresh_dir("ckpt_sim_cadence");
  auto cfg = base_config();
  cfg.resilience.checkpoint_interval = 3;
  cfg.resilience.checkpoint_dir = dir;
  cfg.resilience.checkpoint_keep = 2;
  GravitySimulation sim(cfg, default_node(), test_bodies(300));
  const auto recs = sim.run(7);
  // Snapshots after steps 3 and 6 (plus the initial seed, pruned to keep=2).
  EXPECT_TRUE(recs[2].checkpointed);
  EXPECT_TRUE(recs[5].checkpointed);
  EXPECT_FALSE(recs[6].checkpointed);
  ASSERT_NE(sim.store(), nullptr);
  EXPECT_EQ(sim.store()->files().size(), 2u);
  const auto latest = sim.store()->load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 6);
}

}  // namespace
}  // namespace afmm
