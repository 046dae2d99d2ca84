//===- bridge/ModelService.cpp --------------------------------------------===//

#include "bridge/ModelService.h"

#include "support/Telemetry.h"

using namespace jitml;

ModelBackend::~ModelBackend() = default;

PredictionRequest jitml::takePredictionRequest(Message &M) {
  PredictionRequest Req;
  Req.Type = M.Type;
  if (M.Type == MsgType::Features)
    Req.Entries.push_back({M.Level, std::move(M.FeatureValues)});
  else
    Req.Entries = std::move(M.BatchFeatures);
  Req.Answers.resize(Req.Entries.size());
  for (size_t I = 0; I < Req.Entries.size(); ++I)
    if (Req.Entries[I].FeatureValues.size() != NumFeatures)
      // A wrong-dimension vector would silently index past the scaling
      // parameters the model renormalizes with; it is never predicted.
      Req.Answers[I].What = EntryAnswer::WrongFeatureCount;
  return Req;
}

Message jitml::predictionReply(const PredictionRequest &Req) {
  Message Reply;
  if (Req.Type == MsgType::Features) {
    const EntryAnswer &A = Req.Answers.front();
    if (A.What == EntryAnswer::Modifier) {
      Reply.Type = MsgType::Modifier;
      Reply.ModifierBits = A.Bits;
    } else {
      Reply.Type = MsgType::Error;
      Reply.Text = A.What == EntryAnswer::NoModel ? "no model for level"
                                                  : "feature count mismatch";
    }
    return Reply;
  }
  Reply.Type = MsgType::ModifierBatch;
  Reply.BatchModifiers.resize(Req.Answers.size());
  for (size_t I = 0; I < Req.Answers.size(); ++I)
    if (Req.Answers[I].What == EntryAnswer::Modifier)
      Reply.BatchModifiers[I] = {true, Req.Answers[I].Bits};
  return Reply;
}

Message jitml::helloReply(const Message &Hello) {
  Message Reply;
  if (Hello.Version != ProtocolVersion) {
    Reply.Type = MsgType::Error;
    Reply.Text = "unsupported protocol version";
  } else {
    Reply.Type = MsgType::Hello;
    Reply.Version = ProtocolVersion;
  }
  return Reply;
}

ServeStats jitml::serveModel(Transport &T, ModelBackend &Backend) {
  MetricRegistry &R = MetricRegistry::global();
  TelemetryCounter &ServedCtr = R.counter("bridge.served");
  TelemetryCounter &DegradedCtr = R.counter("bridge.degraded");
  TelemetryCounter &HelloRejectCtr = R.counter("bridge.hello_rejects");
  ServeStats Stats;
  Message In;
  for (;;) {
    RecvStatus S = recvMessageFor(T, In, /*TimeoutMs=*/-1);
    Message Reply;
    if (S == RecvStatus::Malformed) {
      // The frame was consumed whole, so the stream is still aligned:
      // report the problem and keep serving instead of dropping the
      // session (and with it every later compilation of this client).
      Reply.Type = MsgType::Error;
      Reply.Text = "malformed frame";
    } else if (S != RecvStatus::Ok) {
      return Stats; // EOF, broken pipe, or unframeable garbage
    } else if (In.Type == MsgType::Bye) {
      return Stats;
    } else if (In.Type == MsgType::Hello) {
      Reply = helloReply(In);
      if (Reply.Type == MsgType::Error) {
        ++Stats.HelloRejects;
        HelloRejectCtr.add();
      }
    } else if (In.Type == MsgType::Features ||
               In.Type == MsgType::FeatureBatch) {
      // One answer per entry: a bad entry degrades alone, the rest of a
      // batch still gets real predictions.
      PredictionRequest Req = takePredictionRequest(In);
      for (size_t I = 0; I < Req.Entries.size(); ++I) {
        EntryAnswer &A = Req.Answers[I];
        if (A.What != EntryAnswer::WrongFeatureCount)
          if (std::optional<uint64_t> Bits = Backend.predictModifier(
                  Req.Entries[I].Level, Req.Entries[I].FeatureValues))
            A = {EntryAnswer::Modifier, *Bits};
        if (A.What == EntryAnswer::Modifier) {
          ++Stats.Served;
          ServedCtr.add();
        } else {
          ++Stats.Degraded;
          DegradedCtr.add();
        }
      }
      Reply = predictionReply(Req);
    } else {
      Reply.Type = MsgType::Error;
      Reply.Text = "unexpected message";
    }
    if (!sendMessage(T, Reply))
      return Stats;
  }
}
