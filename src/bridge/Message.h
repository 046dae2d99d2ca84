//===- bridge/Message.h - Compiler <-> model protocol -----------*- C++ -*-===//
///
/// \file
/// The "lean and versatile communication protocol that integrates the
/// machine-learned models with the compiler and allows different models to
/// be easily swapped without changes to the compiler" (paper contribution
/// 4). Messages are length-prefixed frames over a byte-stream transport:
///
///   frame  := length u32le | type u8 | payload
///   Hello  := version u8
///   Features := level u8 | count u16le | count x f64le (raw features)
///   Modifier := bits u64le
///   Error  := utf-8 text
///   Bye    := (empty)
///   FeatureBatch := n u16le | n x (level u8 | count u16le | count x f64le)
///   ModifierBatch := n u16le | n x (has u8 | bits u64le)
///
/// FeatureBatch/ModifierBatch let one round trip serve a whole backlog of
/// compilations (the async pipeline's workers dequeue in batches). The
/// reply carries exactly one entry per request entry, in order; has=0
/// means "no model for this entry" and the compiler falls back to the
/// unmodified plan for that method only.
///
/// The model side owns the scaling file and the label lookup table, so the
/// compiler ships raw feature values and receives a ready-to-install
/// 58-bit modifier (section 7).
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BRIDGE_MESSAGE_H
#define JITML_BRIDGE_MESSAGE_H

#include "opt/Plan.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jitml {

/// The protocol version both sides announce in Hello. A server rejects a
/// mismatched client with an Error reply instead of silently proceeding.
constexpr uint8_t ProtocolVersion = 1;

enum class MsgType : uint8_t {
  Hello = 1,
  Features = 2,
  Modifier = 3,
  Error = 4,
  Bye = 5,
  FeatureBatch = 6,
  ModifierBatch = 7,
};

/// One entry of a FeatureBatch request.
struct BatchFeatureEntry {
  OptLevel Level = OptLevel::Cold;
  std::vector<double> FeatureValues;
};

/// One entry of a ModifierBatch reply.
struct BatchModifierEntry {
  bool HasModifier = false; ///< false: no model covers this entry
  uint64_t Bits = 0;
};

/// Largest accepted FeatureBatch entry count (well under the 1 MiB frame
/// cap even at 71 features per entry).
constexpr size_t MaxBatchEntries = 256;

struct Message {
  MsgType Type = MsgType::Bye;
  // Payload variants (valid per Type).
  uint8_t Version = 1;                ///< Hello
  OptLevel Level = OptLevel::Cold;    ///< Features
  std::vector<double> FeatureValues;  ///< Features
  uint64_t ModifierBits = 0;          ///< Modifier
  std::string Text;                   ///< Error
  std::vector<BatchFeatureEntry> BatchFeatures;   ///< FeatureBatch
  std::vector<BatchModifierEntry> BatchModifiers; ///< ModifierBatch
};

/// Result of a deadline-aware read.
enum class IoStatus : uint8_t {
  Ok,      ///< all requested bytes delivered
  Timeout, ///< deadline expired first (stream may be mid-frame!)
  Closed,  ///< EOF or broken connection
};

/// Byte-stream transport. Implementations must deliver bytes in order.
/// There is one read primitive, readBytesFor; a blocking read is a read
/// with a negative deadline.
class Transport {
public:
  virtual ~Transport();
  /// Writes all bytes; false on a broken connection.
  virtual bool writeBytes(const uint8_t *Data, size_t Size) = 0;
  /// Reads exactly \p Size bytes waiting at most \p TimeoutMs milliseconds
  /// (negative = wait forever). Closed on EOF or a broken connection. After
  /// a Timeout the stream may have been consumed partway through a frame,
  /// so callers must treat the connection as unusable.
  virtual IoStatus readBytesFor(uint8_t *Data, size_t Size,
                                int TimeoutMs) = 0;
};

/// Decorator that counts bytes crossing any transport — the bridge's
/// "bytes on the wire" counters.
class CountingTransport : public Transport {
public:
  explicit CountingTransport(Transport &Inner) : Inner(Inner) {}

  bool writeBytes(const uint8_t *Data, size_t Size) override;
  IoStatus readBytesFor(uint8_t *Data, size_t Size, int TimeoutMs) override;

  uint64_t bytesSent() const { return BytesSent; }
  uint64_t bytesReceived() const { return BytesReceived; }

private:
  Transport &Inner;
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;
};

/// Result of receiving one frame.
enum class RecvStatus : uint8_t {
  Ok,        ///< a well-formed message was decoded
  Timeout,   ///< deadline expired; the stream is no longer frame-aligned
  Closed,    ///< EOF, transport failure, or an unframeable length prefix
  Malformed, ///< the frame was read in full but its content is invalid;
             ///< the stream is still frame-aligned, so a server may reply
             ///< with an Error message and keep the session alive
};

/// Payload length announced by the 4-byte u32le prefix at \p Head, or 0
/// when the prefix is unframeable (0, or over the 1 MiB frame cap): the
/// next frame boundary cannot be found, so the stream is dead. Every
/// reader of frames — recvMessageFor and buffered servers alike — applies
/// this one rule.
uint32_t decodeFrameLength(const uint8_t *Head);

/// Frames and sends \p M. Returns false on transport failure.
bool sendMessage(Transport &T, const Message &M);

/// Decodes one fully-read frame payload (everything after the u32 length
/// prefix). Returns Ok or Malformed — never Timeout/Closed, since the
/// bytes are already in hand. Exposed for event-loop servers that
/// reassemble frames from a byte buffer instead of blocking in
/// recvMessage.
RecvStatus decodeMessagePayload(const std::vector<uint8_t> &Payload,
                                Message &Out);

/// Serializes \p M into a complete frame (length prefix included),
/// appending to \p Out. The writing half of decodeMessagePayload for
/// buffered servers.
void encodeMessageFrame(const Message &M, std::vector<uint8_t> &Out);

/// Receives one frame. Returns false on EOF, transport failure, or a
/// malformed frame.
bool recvMessage(Transport &T, Message &Out);

/// Deadline-aware receive; \p TimeoutMs bounds the whole frame (negative =
/// wait forever). See RecvStatus for how failures are classified.
RecvStatus recvMessageFor(Transport &T, Message &Out, int TimeoutMs);

} // namespace jitml

#endif // JITML_BRIDGE_MESSAGE_H
