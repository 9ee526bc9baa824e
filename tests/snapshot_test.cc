#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/byte_io.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/core/trainer.h"
#include "src/fleet/wire.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/nn/norm.h"
#include "src/nn/optim.h"
#include "src/nn/state_dict.h"
#include "src/sim/presets.h"
#include "src/snapshot/snapshot.h"

namespace rntraj {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Tiny module tree exercising every registration kind: own parameter,
/// child with parameters, child with buffers (GraphNorm running stats).
class TinyNet : public Module {
 public:
  TinyNet() : lin_(3, 2), norm_(2) {
    scale_ = RegisterParameter("scale", Tensor::Full({2}, 1.0f));
    RegisterChild("lin", &lin_);
    RegisterChild("norm", &norm_);
  }

  Linear lin_;
  GraphNorm norm_;
  Tensor scale_;
};

void FillSequential(const rntraj::StateDict& sd, float start) {
  float x = start;
  for (const StateEntry& e : sd) {
    Tensor t = e.tensor;
    for (float& v : t.data()) v = x += 0.25f;
  }
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// StateDict API

TEST(StateDictTest, RegistrationOrderAndDottedPaths) {
  SeedGlobalRng(1);
  TinyNet net;
  rntraj::StateDict sd = net.StateDict();
  // Own params first, then children in registration order; within a child,
  // params before buffers.
  std::vector<std::string> names;
  for (const StateEntry& e : sd) names.push_back(e.name);
  const std::vector<std::string> want = {
      "scale",        "lin.weight",        "lin.bias",
      "norm.gamma",   "norm.beta",         "norm.running_mean",
      "norm.running_var"};
  EXPECT_EQ(names, want);
  // Buffers are flagged; only the running stats are buffers.
  for (const StateEntry& e : sd) {
    const bool is_running = e.name == "norm.running_mean" ||
                            e.name == "norm.running_var";
    EXPECT_EQ(e.is_buffer, is_running) << e.name;
  }
  // Two constructions of the same architecture produce the same order.
  SeedGlobalRng(1);
  TinyNet net2;
  rntraj::StateDict sd2 = net2.StateDict();
  ASSERT_EQ(sd.size(), sd2.size());
  for (size_t i = 0; i < sd.size(); ++i) EXPECT_EQ(sd[i].name, sd2[i].name);
}

TEST(StateDictTest, DuplicateNameAborts) {
  rntraj::StateDict sd;
  sd.Add("w", Tensor::Zeros({2}));
  EXPECT_DEATH(sd.Add("w", Tensor::Zeros({2})), "duplicate entry name");
}

TEST(StateDictTest, LearnableTensorsSkipsBuffers) {
  SeedGlobalRng(2);
  TinyNet net;
  std::vector<Tensor> learnable = LearnableTensors(net.StateDict());
  // scale + lin.weight + lin.bias + norm.gamma + norm.beta.
  EXPECT_EQ(learnable.size(), 5u);
  EXPECT_EQ(net.Parameters().size(), learnable.size());
}

// ---------------------------------------------------------------------------
// Snapshot format

TEST(SnapshotTest, RoundTripIsBitExact) {
  SeedGlobalRng(9);
  TinyNet net;
  FillSequential(net.StateDict(), -3.0f);
  const std::string path = TempPath("snap_roundtrip.bin");
  snapshot::Snapshot snap;
  snap.state = net.StateDict();
  snap.model_name = "tiny";
  std::string err;
  ASSERT_TRUE(snapshot::WriteSnapshot(path, snap, &err)) << err;

  snapshot::Snapshot loaded;
  ASSERT_TRUE(snapshot::ReadSnapshot(path, &loaded, &err)) << err;
  EXPECT_EQ(loaded.model_name, "tiny");
  EXPECT_FALSE(loaded.has_trainer_state);
  rntraj::StateDict own = net.StateDict();
  ASSERT_EQ(loaded.state.size(), own.size());
  for (size_t i = 0; i < own.size(); ++i) {
    EXPECT_EQ(loaded.state[i].name, own[i].name);
    EXPECT_EQ(loaded.state[i].tensor.shape(), own[i].tensor.shape());
    EXPECT_EQ(loaded.state[i].is_buffer, own[i].is_buffer);
    // Bit-exact: fp32 values written and read back unchanged.
    EXPECT_EQ(loaded.state[i].tensor.data(), own[i].tensor.data())
        << own[i].name;
  }
}

TEST(SnapshotTest, TrainerSectionRoundTrips) {
  SeedGlobalRng(10);
  TinyNet net;
  const std::string path = TempPath("snap_sections.bin");
  snapshot::Snapshot snap;
  snap.state = net.StateDict();
  snap.has_trainer_state = true;
  snap.trainer.epochs_done = 7;
  snap.trainer.training_steps = 91;
  snap.trainer.adam = {5, {0.5f, -0.5f}, {0.25f, 0.125f}};
  std::string err;
  ASSERT_TRUE(snapshot::WriteSnapshot(path, snap, &err)) << err;

  snapshot::Snapshot loaded;
  ASSERT_TRUE(snapshot::ReadSnapshot(path, &loaded, &err)) << err;
  ASSERT_TRUE(loaded.has_trainer_state);
  EXPECT_EQ(loaded.trainer.epochs_done, 7u);
  EXPECT_EQ(loaded.trainer.training_steps, 91u);
  EXPECT_EQ(loaded.trainer.adam.t, 5);
  EXPECT_EQ(loaded.trainer.adam.m, snap.trainer.adam.m);
  EXPECT_EQ(loaded.trainer.adam.v, snap.trainer.adam.v);
}

// FNV-1a hash of a fixed format-version-1 file carrying every section the
// writer emits. A
// round trip cannot see a layout change made the same way in the writer and
// the reader; this hash can. A mismatch means files written earlier no
// longer load: bump kFormatVersion rather than the hash.
TEST(SnapshotTest, FileMatchesGoldenHash) {
  SeedGlobalRng(10);
  TinyNet net;
  FillSequential(net.StateDict(), -3.0f);
  snapshot::Snapshot snap;
  snap.state = net.StateDict();
  snap.has_trainer_state = true;
  snap.trainer.epochs_done = 7;
  snap.trainer.training_steps = 91;
  snap.trainer.adam = {5, {0.5f, -0.5f}, {0.25f, 0.125f}};
  snap.model_name = "tiny";
  const std::string path = TempPath("snap_golden.bin");
  std::string err;
  ASSERT_TRUE(snapshot::WriteSnapshot(path, snap, &err)) << err;
  const std::vector<char> bytes = ReadFileBytes(path);
  const uint64_t hash =
      fleet::Fnv1a64(std::string(bytes.begin(), bytes.end()));
  EXPECT_EQ(hash, 0x061491e406eb8cf6ull) << "0x" << std::hex << hash;
}

TEST(SnapshotTest, MissingFileIsGraceful) {
  snapshot::Snapshot out;
  std::string err;
  EXPECT_FALSE(
      snapshot::ReadSnapshot(TempPath("does_not_exist.bin"), &out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(SnapshotTest, RejectsWrongMagicVersionEndianAndTruncation) {
  SeedGlobalRng(11);
  TinyNet net;
  const std::string good = TempPath("snap_good.bin");
  snapshot::Snapshot snap;
  snap.state = net.StateDict();
  std::string err;
  ASSERT_TRUE(snapshot::WriteSnapshot(good, snap, &err)) << err;
  const std::vector<char> bytes = ReadFileBytes(good);
  ASSERT_GT(bytes.size(), 24u);
  const std::string bad = TempPath("snap_bad.bin");
  snapshot::Snapshot out;

  {  // Wrong magic.
    std::vector<char> b = bytes;
    b[0] = 'X';
    WriteFileBytes(bad, b);
    err.clear();
    EXPECT_FALSE(snapshot::ReadSnapshot(bad, &out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
  }
  {  // Foreign format version (bytes 8..11).
    std::vector<char> b = bytes;
    b[8] = 99;
    WriteFileBytes(bad, b);
    err.clear();
    EXPECT_FALSE(snapshot::ReadSnapshot(bad, &out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
  }
  {  // Foreign endianness (tag at bytes 12..15).
    std::vector<char> b = bytes;
    std::swap(b[12], b[15]);
    std::swap(b[13], b[14]);
    WriteFileBytes(bad, b);
    err.clear();
    EXPECT_FALSE(snapshot::ReadSnapshot(bad, &out, &err));
    EXPECT_NE(err.find("endian"), std::string::npos) << err;
  }
  // Truncation at every prefix step never aborts and always errors.
  for (size_t cut : std::vector<size_t>{4, 12, 20, 30, bytes.size() / 2,
                                        bytes.size() - 3}) {
    std::vector<char> b(bytes.begin(), bytes.begin() + cut);
    WriteFileBytes(bad, b);
    err.clear();
    EXPECT_FALSE(snapshot::ReadSnapshot(bad, &out, &err)) << "cut=" << cut;
    EXPECT_FALSE(err.empty()) << "cut=" << cut;
  }
  {  // A 44-byte file (header, one state-dict section entry, its entry
     // count) whose entry count claims 0xFFFFFFFF: rejected before the
     // parameter table is allocated.
    std::vector<char> b(bytes.begin(), bytes.begin() + 44);
    const uint32_t sections = 1;
    const uint64_t payload = 4;
    const uint32_t count = 0xFFFFFFFFu;
    std::memcpy(&b[16], &sections, sizeof(sections));
    std::memcpy(&b[32], &payload, sizeof(payload));
    std::memcpy(&b[40], &count, sizeof(count));
    WriteFileBytes(bad, b);
    err.clear();
    EXPECT_FALSE(snapshot::ReadSnapshot(bad, &out, &err));
    EXPECT_NE(err.find("state-dict table"), std::string::npos) << err;
  }
  {  // Payload-size corruption: grow a section's claimed byte count past the
     // file end.
    std::vector<char> b = bytes;
    b[b.size() - 40] = static_cast<char>(0xFF);
    b[b.size() - 39] = static_cast<char>(0xFF);
    WriteFileBytes(bad, b);
    err.clear();
    // Either rejected outright or decoded to a dict that no longer matches —
    // never an abort. Most corruptions of interior bytes trip a bounds or
    // consistency check.
    snapshot::ReadSnapshot(bad, &out, &err);
  }
}

TEST(SnapshotTest, DuplicateEntryNameIsGraceful) {
  // Two table entries under one name: a diagnostic, not the abort a
  // duplicate StateDict::Add raises.
  snapshot::Snapshot snap;
  snap.state.Add("w1", Tensor::Full({2}, 1.0f));
  snap.state.Add("w2", Tensor::Full({2}, 2.0f));
  const std::string path = TempPath("snap_duplicate.bin");
  std::string err;
  ASSERT_TRUE(snapshot::WriteSnapshot(path, snap, &err)) << err;
  std::vector<char> bytes = ReadFileBytes(path);
  const size_t at = std::string(bytes.begin(), bytes.end()).find("w2");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 1] = '1';
  WriteFileBytes(path, bytes);
  snapshot::Snapshot out;
  EXPECT_FALSE(snapshot::ReadSnapshot(path, &out, &err));
  EXPECT_NE(err.find("duplicate entry 'w1'"), std::string::npos) << err;
}

TEST(SnapshotTest, ApplyStateDictIsStrictAndAtomic) {
  SeedGlobalRng(12);
  TinyNet net;
  rntraj::StateDict own = net.StateDict();
  const std::vector<float> before = net.scale_.data();
  std::string err;

  {  // Missing entry: rejected, nothing mutated.
    rntraj::StateDict partial;
    partial.Add("scale", Tensor::Full({2}, 9.0f));
    EXPECT_FALSE(snapshot::ApplyStateDict(own, partial, &err));
    EXPECT_NE(err.find("missing"), std::string::npos) << err;
    EXPECT_EQ(net.scale_.data(), before);
  }
  {  // Wrong shape on a matched name: rejected before any copy.
    rntraj::StateDict bad;
    for (const StateEntry& e : own) {
      if (e.name == "lin.weight") {
        bad.Add(e.name, Tensor::Zeros({5, 5}));
      } else {
        bad.Add(e.name, e.tensor.Detach());
      }
    }
    EXPECT_FALSE(snapshot::ApplyStateDict(own, bad, &err));
    EXPECT_NE(err.find("lin.weight"), std::string::npos) << err;
    EXPECT_EQ(net.scale_.data(), before);
  }
  {  // Unexpected extra entry: rejected.
    rntraj::StateDict extra;
    for (const StateEntry& e : own) extra.Add(e.name, e.tensor.Detach());
    extra.Add("stowaway", Tensor::Zeros({1}));
    EXPECT_FALSE(snapshot::ApplyStateDict(own, extra, &err));
    EXPECT_NE(err.find("stowaway"), std::string::npos) << err;
  }
  {  // Exact match: applied, in place. A handle taken before the apply sees
     // the loaded values: values are copied into the existing tensors, so
     // an optimiser built from the old dict (trainer resume) stays live.
    SeedGlobalRng(13);
    TinyNet donor;
    FillSequential(donor.StateDict(), 50.0f);
    Tensor held = net.lin_.weight();
    EXPECT_TRUE(snapshot::ApplyStateDict(own, donor.StateDict(), &err)) << err;
    EXPECT_EQ(net.scale_.data(), donor.scale_.data());
    rntraj::StateDict got = net.StateDict(), want = donor.StateDict();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tensor.data(), want[i].tensor.data()) << got[i].name;
    }
    EXPECT_EQ(held.data(), donor.lin_.weight().data());
  }
}

TEST(SnapshotTest, AdamImportRejectsForeignLayout) {
  SeedGlobalRng(14);
  TinyNet net;
  Adam opt(LearnableTensors(net.StateDict()), 1e-2f);
  Adam::State s = opt.ExportState();
  s.m.push_back(0.0f);  // wrong arena size
  std::string err;
  EXPECT_FALSE(opt.ImportState(s, &err));
  EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Model-level snapshots + trainer checkpoint/resume (tiny dataset)

class SnapshotModelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig cfg = ChengduConfig(BenchScale::kTiny);
    cfg.num_train = 6;
    cfg.num_val = 1;
    cfg.num_test = 2;
    cfg.sim.len_rho = 24;
    dataset_ = BuildDataset(cfg).release();
    ctx_ = new ModelContext(ModelContext::FromDataset(*dataset_));
  }
  static void TearDownTestSuite() {
    delete ctx_;
    delete dataset_;
    dataset_ = nullptr;
    ctx_ = nullptr;
  }

  static RnTrajRecConfig SmallConfig() {
    RnTrajRecConfig cfg;
    cfg.dim = 16;
    cfg.delta = 250.0;
    cfg.max_subgraph_nodes = 16;
    cfg.gridgnn.gnn_layers = 1;
    cfg.gridgnn.heads = 2;
    cfg.gpsformer.blocks = 1;
    cfg.gpsformer.heads = 2;
    cfg.gpsformer.grl.heads = 2;
    cfg.Sync();
    return cfg;
  }

  static Dataset* dataset_;
  static ModelContext* ctx_;
};

Dataset* SnapshotModelFixture::dataset_ = nullptr;
ModelContext* SnapshotModelFixture::ctx_ = nullptr;

bool SameTrajectory(const MatchedTrajectory& a, const MatchedTrajectory& b) {
  if (a.points.size() != b.points.size()) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].seg_id != b.points[i].seg_id ||
        a.points[i].ratio != b.points[i].ratio) {
      return false;
    }
  }
  return true;
}

TEST_F(SnapshotModelFixture, SaveLoadSnapshotReproducesModelExactly) {
  SeedGlobalRng(21);
  RnTrajRec model(SmallConfig(), *ctx_);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 4;
  TrainModel(model, dataset_->train(), tcfg);
  model.SetTrainingMode(false);
  model.BeginInference();
  const MatchedTrajectory want = model.Recover(dataset_->test()[0]);

  const std::string path = TempPath("snap_model.bin");
  std::string err;
  ASSERT_TRUE(model.SaveSnapshot(path, &err)) << err;

  SeedGlobalRng(22);  // different init: the load must erase it
  RnTrajRec restored(SmallConfig(), *ctx_);
  ASSERT_TRUE(restored.LoadSnapshot(path, &err)) << err;
  restored.SetTrainingMode(false);
  restored.BeginInference();
  EXPECT_TRUE(SameTrajectory(want, restored.Recover(dataset_->test()[0])));
}

/// Every train and test sample of `ds` must get the same answer from both
/// models, segment ids and ratios exact.
void ExpectSameAnswers(const Dataset& ds, RecoveryModel& want_model,
                       RecoveryModel& got_model) {
  std::vector<TrajectorySample> samples = ds.train();
  samples.insert(samples.end(), ds.test().begin(), ds.test().end());
  const std::vector<MatchedTrajectory> want = RecoverAll(want_model, samples);
  const std::vector<MatchedTrajectory> got = RecoverAll(got_model, samples);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameTrajectory(want[i], got[i])) << "sample " << i;
  }
}

TEST_F(SnapshotModelFixture, SnapshotSavedRightAfterTrainingAnswersLikeModel) {
  SeedGlobalRng(23);
  RnTrajRec model(SmallConfig(), *ctx_);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 4;
  TrainModel(model, dataset_->train(), tcfg);
  // Saved with no BeginInference in between: the model still holds the
  // road representation of its last training step, computed in training
  // mode from the weights before that step's update. None of it may reach
  // the file's reader.
  const std::string path = TempPath("snap_after_training.bin");
  std::string err;
  ASSERT_TRUE(model.SaveSnapshot(path, &err)) << err;

  SeedGlobalRng(24);
  RnTrajRec restored(SmallConfig(), *ctx_);
  ASSERT_TRUE(restored.LoadSnapshot(path, &err)) << err;
  ExpectSameAnswers(*dataset_, model, restored);
}

/// A snapshot's state-dict section payload, encoded here field by field as
/// docs/snapshot_format.md lays it out, independently of the writer.
std::string StateDictPayloadByHand(const rntraj::StateDict& sd) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(sd.size()));
  uint64_t total = 0;
  for (const StateEntry& e : sd) {
    PutString(&out, e.name);
    PutU8(&out, e.is_buffer ? 1 : 0);
    PutU8(&out, 0);  // fp32
    PutU32(&out, static_cast<uint32_t>(e.tensor.rank()));
    for (int d : e.tensor.shape()) PutU32(&out, static_cast<uint32_t>(d));
    total += e.tensor.data().size();
  }
  PutU64(&out, total);
  for (const StateEntry& e : sd) {
    PutFloats(&out, e.tensor.data().data(), e.tensor.data().size());
  }
  return out;
}

// Files written before the road-representation section (type 2) was
// retired still load: the reader skips the section, and the model answers
// like a cold model with the file's weights, whatever the section holds.
TEST_F(SnapshotModelFixture, OldFileWithRoadSectionLoadsAndIgnoresIt) {
  SeedGlobalRng(25);
  RnTrajRec source(SmallConfig(), *ctx_);
  const int rows = ctx_->rn->num_segments();
  const int cols = SmallConfig().dim;
  std::string road;
  PutU32(&road, static_cast<uint32_t>(rows));
  PutU32(&road, static_cast<uint32_t>(cols));
  const std::vector<float> garbage(static_cast<size_t>(rows) * cols, 1e6f);
  PutFloats(&road, garbage.data(), garbage.size());
  const std::vector<std::pair<uint32_t, std::string>> sections = {
      {1, StateDictPayloadByHand(source.StateDict())}, {2, road}};

  std::string file("RNTRSNAP", 8);
  PutU32(&file, 1);            // format version
  PutU32(&file, 0x01020304u);  // endianness tag
  PutU32(&file, static_cast<uint32_t>(sections.size()));
  PutU32(&file, 0);
  for (const auto& [type, payload] : sections) {
    PutU32(&file, type);
    PutU32(&file, 0);
    PutU64(&file, payload.size());
    file += payload;
  }
  const std::string path = TempPath("snap_old_road_section.bin");
  WriteFileBytes(path, std::vector<char>(file.begin(), file.end()));

  snapshot::Snapshot snap;
  std::string err;
  ASSERT_TRUE(snapshot::ReadSnapshot(path, &snap, &err)) << err;
  EXPECT_EQ(snap.state.size(), source.StateDict().size());

  SeedGlobalRng(26);
  RnTrajRec loaded(SmallConfig(), *ctx_);
  ASSERT_TRUE(loaded.LoadSnapshot(path, &err)) << err;
  ExpectSameAnswers(*dataset_, source, loaded);
}

TEST_F(SnapshotModelFixture, ResumedTrainingMatchesUninterruptedBitForBit) {
  const std::string ckpt = TempPath("snap_resume_ckpt.bin");
  TrainConfig full_cfg;
  full_cfg.epochs = 4;
  full_cfg.batch_size = 4;

  // Reference: one uninterrupted run.
  SeedGlobalRng(31);
  RnTrajRec reference(SmallConfig(), *ctx_);
  TrainStats full = TrainModel(reference, dataset_->train(), full_cfg);
  ASSERT_EQ(full.epoch_losses.size(), 4u);

  // Interrupted run: same 4-epoch schedule, but stop after epoch 2 (the
  // checkpoint written there). Shrinking `epochs` instead would change the
  // teacher-forcing decay and break the bit-for-bit comparison.
  TrainConfig half_cfg = full_cfg;
  half_cfg.stop_after_epoch = 2;
  half_cfg.checkpoint_every = 2;
  half_cfg.checkpoint_path = ckpt;
  SeedGlobalRng(31);
  RnTrajRec interrupted(SmallConfig(), *ctx_);
  TrainStats half = TrainModel(interrupted, dataset_->train(), half_cfg);
  ASSERT_EQ(half.epoch_losses.size(), 2u);
  EXPECT_EQ(half.epoch_losses[0], full.epoch_losses[0]);
  EXPECT_EQ(half.epoch_losses[1], full.epoch_losses[1]);

  // Resume into a FRESH model (different init — the checkpoint must carry
  // everything) and train to completion.
  TrainConfig resume_cfg = full_cfg;
  resume_cfg.resume_from = ckpt;
  SeedGlobalRng(99);
  RnTrajRec resumed(SmallConfig(), *ctx_);
  TrainStats rest = TrainModel(resumed, dataset_->train(), resume_cfg);
  ASSERT_EQ(rest.epoch_losses.size(), 2u);  // epochs 3 and 4 only
  EXPECT_EQ(rest.epoch_losses[0], full.epoch_losses[2]);
  EXPECT_EQ(rest.epoch_losses[1], full.epoch_losses[3]);

  // And the resumed weights equal the uninterrupted run's, bit for bit.
  rntraj::StateDict a = reference.StateDict();
  rntraj::StateDict b = resumed.StateDict();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tensor.data(), b[i].tensor.data()) << a[i].name;
  }
}

}  // namespace
}  // namespace rntraj
