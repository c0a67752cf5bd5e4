// Serialization robustness: every payload kind round-trips bit-exactly,
// and corrupted buffers — every truncation point, systematic bit flips —
// come back as clean Status errors, never crashes, hangs, or huge
// allocations. Runs under the sanitizer CI jobs via the chaos label.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ml/op_state.h"
#include "storage/serialization.h"

namespace hyppo::storage {
namespace {

ml::FlatTree MakeTree() {
  ml::FlatTree tree;
  tree.feature = {0, -1, -1};
  tree.threshold = {0.5, 0.0, 0.0};
  tree.left = {1, -1, -1};
  tree.right = {2, -1, -1};
  tree.value = {0.0, -1.5, 2.5};
  return tree;
}

// One payload per PayloadTag: monostate, dataset, the four op-state
// variants, predictions, scalar value.
std::vector<ArtifactPayload> EveryPayloadKind() {
  std::vector<ArtifactPayload> payloads;
  payloads.emplace_back(std::monostate{});

  auto dataset = std::make_shared<ml::Dataset>(5, 3);
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      dataset->at(r, c) = static_cast<double>(r) - 0.25 * c;
    }
  }
  payloads.emplace_back(ml::DatasetPtr(dataset));

  auto vector_state = std::make_shared<ml::VectorState>("StandardScaler");
  vector_state->vectors["mean"] = {1.0, 2.0, 3.0};
  vector_state->vectors["std"] = {0.5, 0.5, 0.5};
  vector_state->scalars["n"] = 5.0;
  payloads.emplace_back(ml::OpStatePtr(vector_state));

  auto tree_state =
      std::make_shared<ml::TreeState>("DecisionTreeClassifier");
  tree_state->tree = MakeTree();
  tree_state->is_classifier = true;
  payloads.emplace_back(ml::OpStatePtr(tree_state));

  auto forest_state =
      std::make_shared<ml::ForestState>("RandomForestRegressor");
  forest_state->trees = {MakeTree(), MakeTree()};
  forest_state->tree_weights = {0.5, 0.5};
  forest_state->base_prediction = 0.125;
  payloads.emplace_back(ml::OpStatePtr(forest_state));

  auto ensemble_state =
      std::make_shared<ml::EnsembleState>("StackingRegressor");
  ensemble_state->base_states = {vector_state, tree_state};
  ensemble_state->base_logical_ops = {"StandardScaler",
                                      "DecisionTreeClassifier"};
  ensemble_state->base_impls = {"skl.StandardScaler",
                                "skl.DecisionTreeClassifier"};
  ensemble_state->meta_weights = {0.75, 0.25};
  ensemble_state->meta_intercept = -0.5;
  payloads.emplace_back(ml::OpStatePtr(ensemble_state));

  payloads.emplace_back(ml::PredictionsPtr(
      std::make_shared<const std::vector<double>>(
          std::vector<double>{1.0, -2.5, 0.0, 1e300})));

  payloads.emplace_back(0.8125);
  return payloads;
}

// Dataset cells are encoded column by column, each double as its 8 bytes
// least significant first, whatever the host's byte order.
TEST(SerializationFuzzTest, DatasetCellsAreLittleEndianColumnMajor) {
  auto dataset = std::make_shared<ml::Dataset>(2, 2);
  dataset->at(0, 0) = 1.0;
  dataset->at(1, 0) = -2.5;
  dataset->at(0, 1) = 1e300;
  dataset->at(1, 1) = 0.1;
  std::string expected;
  for (double value : {1.0, -2.5, 1e300, 0.1}) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      expected.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
    }
  }
  auto bytes = SerializePayload(ArtifactPayload(ml::DatasetPtr(dataset)));
  ASSERT_TRUE(bytes.ok());
  EXPECT_NE(bytes->find(expected), std::string::npos);
}

TEST(SerializationFuzzTest, EveryPayloadTagRoundTripsBitExact) {
  for (const ArtifactPayload& payload : EveryPayloadKind()) {
    auto bytes = SerializePayload(payload);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto decoded = DeserializePayload(*bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), payload.index());
    // Re-encoding the decoded payload reproduces the exact bytes: the
    // strongest cheap deep-equality check the codec offers.
    auto reencoded = SerializePayload(*decoded);
    ASSERT_TRUE(reencoded.ok());
    EXPECT_EQ(*reencoded, *bytes);
  }
}

TEST(SerializationFuzzTest, EveryTruncationFailsCleanly) {
  for (const ArtifactPayload& payload : EveryPayloadKind()) {
    auto bytes = SerializePayload(payload);
    ASSERT_TRUE(bytes.ok());
    for (size_t cut = 0; cut < bytes->size(); ++cut) {
      auto decoded = DeserializePayload(bytes->substr(0, cut));
      EXPECT_FALSE(decoded.ok()) << "cut at " << cut << " of "
                                 << bytes->size();
    }
  }
}

TEST(SerializationFuzzTest, BitFlipsNeverCrash) {
  for (const ArtifactPayload& payload : EveryPayloadKind()) {
    auto bytes = SerializePayload(payload);
    ASSERT_TRUE(bytes.ok());
    // Flip every bit of the first 64 bytes (headers, tags, length
    // prefixes — where a wrong value can mislead the decoder worst), then
    // one bit per byte across the rest.
    for (size_t pos = 0; pos < bytes->size(); ++pos) {
      const int nbits = pos < 64 ? 8 : 1;
      for (int bit = 0; bit < nbits; ++bit) {
        std::string mutated = *bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
        // Either a clean error or a structurally valid decode of
        // different content — both fine; a crash/UB/OOM is the failure.
        auto decoded = DeserializePayload(mutated);
        if (decoded.ok()) {
          (void)SerializePayload(*decoded);
        }
      }
    }
  }
}

TEST(SerializationFuzzTest, HugeClaimedSizesRejectedWithoutAllocation) {
  // A dataset header claiming absurd dimensions must be rejected by the
  // plausibility bound (claimed cells vs bytes actually present), not
  // attempted as a multi-terabyte allocation.
  BinaryWriter writer;
  writer.WriteU32(0x48595031);        // payload magic "HYP1"
  writer.WriteU32(1);                 // PayloadTag::kDataset
  writer.WriteI64(int64_t{1} << 33);  // rows
  writer.WriteI64(int64_t{1} << 33);  // cols
  auto decoded = DeserializePayload(writer.Take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError() ||
              decoded.status().IsIoError());

  // Negative dimensions are equally invalid.
  BinaryWriter negative;
  negative.WriteU32(0x48595031);
  negative.WriteU32(1);
  negative.WriteI64(-4);
  negative.WriteI64(8);
  EXPECT_FALSE(DeserializePayload(negative.Take()).ok());
}

}  // namespace
}  // namespace hyppo::storage
