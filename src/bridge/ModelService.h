//===- bridge/ModelService.h - Model backend and server ---------*- C++ -*-===//
///
/// \file
/// The model side of Figure 5's compiler/model integration:
///
///  * ModelBackend — the prediction interface that makes models swappable
///    "without changes to the compiler";
///  * serveModel — answers one connection's frames from a backend (the
///    server for the FIFO and in-process transports; the multi-client
///    daemon in src/serve serves sockets);
///  * the request/reply helpers both servers share, so each protocol
///    decision is coded once: a Features frame is a FeatureBatch of one,
///    each entry is answered on its own, and only the reply encoding
///    tells the two shapes apart.
///
/// The compiler side is ResilientModelClient (bridge/ResilientClient.h).
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BRIDGE_MODELSERVICE_H
#define JITML_BRIDGE_MODELSERVICE_H

#include "bridge/Transports.h"
#include "features/FeatureVector.h"

#include <optional>

namespace jitml {

/// Anything that can map (level, raw features) to a modifier bit pattern.
class ModelBackend {
public:
  virtual ~ModelBackend();
  /// Returns the modifier bits, or std::nullopt when no model covers the
  /// level (the caller then falls back to the null modifier).
  virtual std::optional<uint64_t>
  predictModifier(OptLevel Level, const std::vector<double> &RawFeatures) = 0;
};

/// How one prediction entry of a request was answered.
struct EntryAnswer {
  enum Kind : uint8_t {
    Modifier,          ///< Bits is the modifier to install
    NoModel,           ///< no model covers the entry's level
    WrongFeatureCount, ///< the entry does not carry NumFeatures values
  };
  Kind What = NoModel;
  uint64_t Bits = 0; ///< valid when What == Modifier
};

/// A Features or FeatureBatch frame as its list of prediction entries — a
/// Features frame is a batch of one.
struct PredictionRequest {
  MsgType Type = MsgType::Features; ///< picks the reply's encoding
  std::vector<BatchFeatureEntry> Entries;
  /// One per entry. An entry with the wrong feature count starts (and
  /// stays) WrongFeatureCount; the others start NoModel until a model
  /// answers them.
  std::vector<EntryAnswer> Answers;
};

/// Moves the entries of a Features or FeatureBatch frame out of \p M.
PredictionRequest takePredictionRequest(Message &M);

/// Encodes \p Req's answers as the reply to its frame. A Features frame
/// gets Modifier, Error "no model for level" or Error "feature count
/// mismatch"; a FeatureBatch gets one ModifierBatch entry per request
/// entry, in order, has=0 for every entry without a modifier.
Message predictionReply(const PredictionRequest &Req);

/// The reply to a Hello frame: Hello(ProtocolVersion), or Error when the
/// client announces another version — a silent answer would let the
/// session proceed on a dialect neither side speaks.
Message helloReply(const Message &Hello);

/// What one serveModel session answered, broken down by outcome — a
/// Modifier reply is not the same thing as an Error reply ("no model for
/// level"), and callers sizing a deployment need to see the difference.
struct ServeStats {
  uint64_t Served = 0;       ///< entries answered with a real modifier
  uint64_t Degraded = 0;     ///< entries answered with Error / has=0
  uint64_t HelloRejects = 0; ///< Hello frames with a mismatched version

  uint64_t answered() const { return Served + Degraded; }
};

/// Serves one connection: replies to Hello, Features and FeatureBatch,
/// stops on Bye or transport EOF. Hello frames announcing a protocol
/// version other than ProtocolVersion are rejected with an Error reply.
/// The stats are also mirrored process-wide as bridge.served /
/// bridge.degraded / bridge.hello_rejects counters.
ServeStats serveModel(Transport &T, ModelBackend &Backend);

} // namespace jitml

#endif // JITML_BRIDGE_MODELSERVICE_H
