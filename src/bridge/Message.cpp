//===- bridge/Message.cpp -------------------------------------------------===//

#include "bridge/Message.h"

#include "support/FaultInjection.h"

#include <chrono>
#include <cstring>

using namespace jitml;

Transport::~Transport() = default;

bool CountingTransport::writeBytes(const uint8_t *Data, size_t Size) {
  if (!Inner.writeBytes(Data, Size))
    return false;
  BytesSent += Size;
  return true;
}

IoStatus CountingTransport::readBytesFor(uint8_t *Data, size_t Size,
                                         int TimeoutMs) {
  IoStatus S = Inner.readBytesFor(Data, Size, TimeoutMs);
  if (S == IoStatus::Ok)
    BytesReceived += Size;
  return S;
}

namespace {

void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back((uint8_t)(V & 0xff));
  Out.push_back((uint8_t)(V >> 8));
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back((uint8_t)(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back((uint8_t)(V >> (8 * I)));
}

void putF64(std::vector<uint8_t> &Out, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

uint16_t getU16(const uint8_t *P) {
  return (uint16_t)(P[0] | (P[1] << 8));
}

uint64_t getU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= (uint64_t)P[I] << (8 * I);
  return V;
}

double getF64(const uint8_t *P) {
  uint64_t Bits = getU64(P);
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

} // namespace

uint32_t jitml::decodeFrameLength(const uint8_t *Head) {
  uint32_t Size = Head[0] | (Head[1] << 8) | (Head[2] << 16) |
                  ((uint32_t)Head[3] << 24);
  return Size > (1u << 20) ? 0 : Size;
}

void jitml::encodeMessageFrame(const Message &M, std::vector<uint8_t> &Out) {
  std::vector<uint8_t> Payload;
  Payload.push_back((uint8_t)M.Type);
  switch (M.Type) {
  case MsgType::Hello:
    Payload.push_back(M.Version);
    break;
  case MsgType::Features:
    Payload.push_back((uint8_t)M.Level);
    putU16(Payload, (uint16_t)M.FeatureValues.size());
    for (double V : M.FeatureValues)
      putF64(Payload, V);
    break;
  case MsgType::Modifier:
    putU64(Payload, M.ModifierBits);
    break;
  case MsgType::Error:
    Payload.insert(Payload.end(), M.Text.begin(), M.Text.end());
    break;
  case MsgType::Bye:
    break;
  case MsgType::FeatureBatch:
    putU16(Payload, (uint16_t)M.BatchFeatures.size());
    for (const BatchFeatureEntry &E : M.BatchFeatures) {
      Payload.push_back((uint8_t)E.Level);
      putU16(Payload, (uint16_t)E.FeatureValues.size());
      for (double V : E.FeatureValues)
        putF64(Payload, V);
    }
    break;
  case MsgType::ModifierBatch:
    putU16(Payload, (uint16_t)M.BatchModifiers.size());
    for (const BatchModifierEntry &E : M.BatchModifiers) {
      Payload.push_back(E.HasModifier ? 1 : 0);
      putU64(Payload, E.Bits);
    }
    break;
  }
  putU32(Out, (uint32_t)Payload.size());
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

bool jitml::sendMessage(Transport &T, const Message &M) {
  if (JITML_FAULT_POINT("bridge.send.fail"))
    return false; // simulated send failure before any bytes hit the wire
  std::vector<uint8_t> Frame;
  encodeMessageFrame(M, Frame);
  return T.writeBytes(Frame.data(), Frame.size());
}

/// Decodes a fully-read payload. The frame was consumed whole, so any
/// failure here leaves the stream aligned — hence Malformed, not Closed.
RecvStatus jitml::decodeMessagePayload(const std::vector<uint8_t> &Payload,
                                       Message &Out) {
  Out = Message();
  if (Payload.empty())
    return RecvStatus::Malformed;
  Out.Type = (MsgType)Payload[0];
  const uint8_t *P = Payload.data() + 1;
  size_t Rest = Payload.size() - 1;
  switch (Out.Type) {
  case MsgType::Hello:
    if (Rest != 1)
      return RecvStatus::Malformed;
    Out.Version = P[0];
    return RecvStatus::Ok;
  case MsgType::Features: {
    if (Rest < 3)
      return RecvStatus::Malformed;
    Out.Level = (OptLevel)P[0];
    if ((unsigned)Out.Level >= NumOptLevels)
      return RecvStatus::Malformed;
    uint16_t Count = getU16(P + 1);
    if (Rest != 3 + (size_t)Count * 8)
      return RecvStatus::Malformed;
    Out.FeatureValues.resize(Count);
    for (uint16_t I = 0; I < Count; ++I)
      Out.FeatureValues[I] = getF64(P + 3 + (size_t)I * 8);
    return RecvStatus::Ok;
  }
  case MsgType::Modifier:
    if (Rest != 8)
      return RecvStatus::Malformed;
    Out.ModifierBits = getU64(P);
    return RecvStatus::Ok;
  case MsgType::Error:
    Out.Text.assign(reinterpret_cast<const char *>(P), Rest);
    return RecvStatus::Ok;
  case MsgType::Bye:
    return Rest == 0 ? RecvStatus::Ok : RecvStatus::Malformed;
  case MsgType::FeatureBatch: {
    if (Rest < 2)
      return RecvStatus::Malformed;
    uint16_t N = getU16(P);
    if (N > MaxBatchEntries)
      return RecvStatus::Malformed;
    size_t Off = 2;
    Out.BatchFeatures.resize(N);
    for (uint16_t I = 0; I < N; ++I) {
      if (Rest < Off + 3)
        return RecvStatus::Malformed;
      BatchFeatureEntry &E = Out.BatchFeatures[I];
      E.Level = (OptLevel)P[Off];
      if ((unsigned)E.Level >= NumOptLevels)
        return RecvStatus::Malformed;
      uint16_t Count = getU16(P + Off + 1);
      Off += 3;
      if (Rest < Off + (size_t)Count * 8)
        return RecvStatus::Malformed;
      E.FeatureValues.resize(Count);
      for (uint16_t J = 0; J < Count; ++J)
        E.FeatureValues[J] = getF64(P + Off + (size_t)J * 8);
      Off += (size_t)Count * 8;
    }
    return Rest == Off ? RecvStatus::Ok : RecvStatus::Malformed;
  }
  case MsgType::ModifierBatch: {
    if (Rest < 2)
      return RecvStatus::Malformed;
    uint16_t N = getU16(P);
    if (N > MaxBatchEntries || Rest != 2 + (size_t)N * 9)
      return RecvStatus::Malformed;
    Out.BatchModifiers.resize(N);
    for (uint16_t I = 0; I < N; ++I) {
      const uint8_t *E = P + 2 + (size_t)I * 9;
      if (E[0] > 1)
        return RecvStatus::Malformed;
      Out.BatchModifiers[I].HasModifier = E[0] == 1;
      Out.BatchModifiers[I].Bits = getU64(E + 1);
    }
    return RecvStatus::Ok;
  }
  }
  return RecvStatus::Malformed; // unknown message type
}

bool jitml::recvMessage(Transport &T, Message &Out) {
  return recvMessageFor(T, Out, /*TimeoutMs=*/-1) == RecvStatus::Ok;
}

RecvStatus jitml::recvMessageFor(Transport &T, Message &Out, int TimeoutMs) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline;
  if (TimeoutMs >= 0)
    Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  auto Remaining = [&]() -> int {
    if (TimeoutMs < 0)
      return -1;
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        Deadline - Clock::now());
    return Left.count() > 0 ? (int)Left.count() : 0;
  };

  uint8_t Head[4];
  IoStatus S = T.readBytesFor(Head, 4, TimeoutMs);
  if (S != IoStatus::Ok)
    return S == IoStatus::Timeout ? RecvStatus::Timeout : RecvStatus::Closed;
  uint32_t Size = decodeFrameLength(Head);
  if (Size == 0)
    return RecvStatus::Closed; // unframeable: the stream is garbage from here
  std::vector<uint8_t> Payload(Size);
  S = T.readBytesFor(Payload.data(), Size, Remaining());
  if (S != IoStatus::Ok)
    return S == IoStatus::Timeout ? RecvStatus::Timeout : RecvStatus::Closed;
  uint64_t CorruptAt = 0; // arg picks the flipped byte; defaults to byte 0
  if (JITML_FAULT_POINT_ARG("bridge.frame.corrupt", CorruptAt))
    Payload[CorruptAt % Payload.size()] ^= 0x01; // Size >= 1 checked above
  return decodeMessagePayload(Payload, Out);
}
