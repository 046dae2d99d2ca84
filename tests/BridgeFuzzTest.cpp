//===- tests/BridgeFuzzTest.cpp - bridge/Message framing properties -------===//
//
// Property/fuzz coverage for the wire protocol: random messages round-trip
// encode->decode unchanged, and every truncation or 1-byte corruption of a
// valid frame yields a clean error status — no crash, no partial accept.
// All randomness comes from one seeded Rng; the seed is printed so any
// failure replays with JITML_FUZZ_SEED=<n>.
//
//===----------------------------------------------------------------------===//

#include "bridge/Message.h"
#include "bridge/Transports.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

using namespace jitml;

namespace {

uint64_t fuzzSeed() {
  static uint64_t Seed = [] {
    uint64_t S = 0x5eedf00dULL;
    if (const char *Env = std::getenv("JITML_FUZZ_SEED"))
      if (*Env)
        S = std::strtoull(Env, nullptr, 10);
    std::fprintf(stderr, "[BridgeFuzz] replay with JITML_FUZZ_SEED=%llu\n",
                 (unsigned long long)S);
    return S;
  }();
  return Seed;
}

/// In-memory transport: writes append to a buffer, reads consume it. A
/// short buffer behaves like a peer that closed mid-frame.
class MemTransport : public Transport {
public:
  MemTransport() = default;
  explicit MemTransport(std::vector<uint8_t> Bytes) : Buf(std::move(Bytes)) {}

  bool writeBytes(const uint8_t *Data, size_t Size) override {
    Buf.insert(Buf.end(), Data, Data + Size);
    return true;
  }
  IoStatus readBytesFor(uint8_t *Data, size_t Size, int) override {
    if (Buf.size() - Pos < Size)
      return IoStatus::Closed; // truncated input == EOF
    std::memcpy(Data, Buf.data() + Pos, Size);
    Pos += Size;
    return IoStatus::Ok;
  }

  const std::vector<uint8_t> &bytes() const { return Buf; }

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
};

/// Finite random feature value; f64le coding is exact, so EXPECT_EQ works.
double randomFeature(Rng &R) {
  return (double)R.nextInRange(-1000000, 1000000) / 16.0;
}

/// A structurally valid message of the given type with random contents.
Message randomMessage(Rng &R, MsgType Type) {
  Message M;
  M.Type = Type;
  switch (Type) {
  case MsgType::Hello:
    M.Version = (uint8_t)R.nextBelow(256);
    break;
  case MsgType::Features: {
    M.Level = (OptLevel)R.nextBelow(NumOptLevels);
    size_t Count = R.nextBelow(80);
    for (size_t I = 0; I < Count; ++I)
      M.FeatureValues.push_back(randomFeature(R));
    break;
  }
  case MsgType::Modifier:
    M.ModifierBits = R.next();
    break;
  case MsgType::Error: {
    size_t Len = R.nextBelow(64);
    for (size_t I = 0; I < Len; ++I)
      M.Text.push_back((char)('a' + R.nextBelow(26)));
    break;
  }
  case MsgType::Bye:
    break;
  case MsgType::FeatureBatch: {
    size_t N = R.nextBelow(8);
    M.BatchFeatures.resize(N);
    for (BatchFeatureEntry &E : M.BatchFeatures) {
      E.Level = (OptLevel)R.nextBelow(NumOptLevels);
      size_t Count = R.nextBelow(16);
      for (size_t I = 0; I < Count; ++I)
        E.FeatureValues.push_back(randomFeature(R));
    }
    break;
  }
  case MsgType::ModifierBatch: {
    size_t N = R.nextBelow(8);
    M.BatchModifiers.resize(N);
    for (BatchModifierEntry &E : M.BatchModifiers) {
      E.HasModifier = R.nextBool(0.5);
      E.Bits = R.next();
    }
    break;
  }
  }
  return M;
}

void expectMessagesEqual(const Message &A, const Message &B) {
  ASSERT_EQ(A.Type, B.Type);
  switch (A.Type) {
  case MsgType::Hello:
    EXPECT_EQ(A.Version, B.Version);
    break;
  case MsgType::Features:
    EXPECT_EQ(A.Level, B.Level);
    ASSERT_EQ(A.FeatureValues.size(), B.FeatureValues.size());
    for (size_t I = 0; I < A.FeatureValues.size(); ++I)
      EXPECT_EQ(A.FeatureValues[I], B.FeatureValues[I]);
    break;
  case MsgType::Modifier:
    EXPECT_EQ(A.ModifierBits, B.ModifierBits);
    break;
  case MsgType::Error:
    EXPECT_EQ(A.Text, B.Text);
    break;
  case MsgType::Bye:
    break;
  case MsgType::FeatureBatch:
    ASSERT_EQ(A.BatchFeatures.size(), B.BatchFeatures.size());
    for (size_t I = 0; I < A.BatchFeatures.size(); ++I) {
      EXPECT_EQ(A.BatchFeatures[I].Level, B.BatchFeatures[I].Level);
      ASSERT_EQ(A.BatchFeatures[I].FeatureValues.size(),
                B.BatchFeatures[I].FeatureValues.size());
      for (size_t J = 0; J < A.BatchFeatures[I].FeatureValues.size(); ++J)
        EXPECT_EQ(A.BatchFeatures[I].FeatureValues[J],
                  B.BatchFeatures[I].FeatureValues[J]);
    }
    break;
  case MsgType::ModifierBatch:
    ASSERT_EQ(A.BatchModifiers.size(), B.BatchModifiers.size());
    for (size_t I = 0; I < A.BatchModifiers.size(); ++I) {
      EXPECT_EQ(A.BatchModifiers[I].HasModifier,
                B.BatchModifiers[I].HasModifier);
      EXPECT_EQ(A.BatchModifiers[I].Bits, B.BatchModifiers[I].Bits);
    }
    break;
  }
}

constexpr MsgType AllTypes[] = {
    MsgType::Hello,   MsgType::Features,     MsgType::Modifier,
    MsgType::Error,   MsgType::Bye,          MsgType::FeatureBatch,
    MsgType::ModifierBatch,
};

} // namespace

TEST(BridgeFuzz, RandomMessagesRoundTrip) {
  Rng R(fuzzSeed());
  for (int Iter = 0; Iter < 300; ++Iter) {
    SCOPED_TRACE(testing::Message() << "iteration " << Iter);
    MsgType Type = AllTypes[R.nextBelow(std::size(AllTypes))];
    Message M = randomMessage(R, Type);
    MemTransport T;
    ASSERT_TRUE(sendMessage(T, M));
    Message Out;
    ASSERT_EQ(recvMessageFor(T, Out, /*TimeoutMs=*/-1), RecvStatus::Ok);
    expectMessagesEqual(M, Out);
  }
}

TEST(BridgeFuzz, EveryTruncationYieldsCleanError) {
  // Exhaustive, not sampled: every proper prefix of a valid frame must
  // decode to a clean non-Ok status (truncation == the peer died
  // mid-frame), never a crash, hang, or accepted message.
  Rng R(fuzzSeed() ^ 0x7247);
  for (MsgType Type : AllTypes) {
    Message M = randomMessage(R, Type);
    MemTransport Whole;
    ASSERT_TRUE(sendMessage(Whole, M));
    const std::vector<uint8_t> &Frame = Whole.bytes();
    for (size_t Len = 0; Len < Frame.size(); ++Len) {
      SCOPED_TRACE(testing::Message()
                   << "type " << (int)Type << " prefix " << Len << "/"
                   << Frame.size());
      MemTransport Cut(
          std::vector<uint8_t>(Frame.begin(), Frame.begin() + (long)Len));
      Message Out;
      RecvStatus S = recvMessageFor(Cut, Out, /*TimeoutMs=*/-1);
      EXPECT_NE(S, RecvStatus::Ok);
    }
  }
}

TEST(BridgeFuzz, SingleByteCorruptionNeverCrashesOrPartiallyAccepts) {
  // Flip one random bit-pattern into every byte position of a valid
  // frame. Decoding may legitimately still succeed (e.g. a flipped bit
  // inside a feature value), but then the result must be a self-consistent
  // message that re-encodes and decodes to itself — never a torn state.
  Rng R(fuzzSeed() ^ 0xC0);
  for (MsgType Type : AllTypes) {
    Message M = randomMessage(R, Type);
    MemTransport Whole;
    ASSERT_TRUE(sendMessage(Whole, M));
    const std::vector<uint8_t> &Frame = Whole.bytes();
    for (size_t Pos = 0; Pos < Frame.size(); ++Pos) {
      SCOPED_TRACE(testing::Message() << "type " << (int)Type << " byte "
                                      << Pos << "/" << Frame.size());
      std::vector<uint8_t> Bytes = Frame;
      uint8_t Mask = (uint8_t)(1u << R.nextBelow(8));
      Bytes[Pos] ^= Mask;
      MemTransport Cut(std::move(Bytes));
      Message Out;
      RecvStatus S = recvMessageFor(Cut, Out, /*TimeoutMs=*/-1);
      if (S != RecvStatus::Ok)
        continue; // clean rejection: Closed or Malformed
      MemTransport Re;
      ASSERT_TRUE(sendMessage(Re, Out));
      Message Again;
      ASSERT_EQ(recvMessageFor(Re, Again, /*TimeoutMs=*/-1), RecvStatus::Ok);
      expectMessagesEqual(Out, Again);
    }
  }
}
