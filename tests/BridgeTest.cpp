//===- tests/BridgeTest.cpp - protocol + transport tests ------------------===//

#include "bridge/ModelService.h"
#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "jitml/LearnedStrategy.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace jitml;

namespace {

/// Echo-style backend: modifier = sum of features + level.
class StubBackend : public ModelBackend {
public:
  std::optional<uint64_t>
  predictModifier(OptLevel Level,
                  const std::vector<double> &RawFeatures) override {
    if (FailLevels && Level == OptLevel::Scorching)
      return std::nullopt;
    uint64_t Sum = (uint64_t)Level;
    for (double V : RawFeatures)
      Sum += (uint64_t)V;
    ++Served;
    return Sum;
  }
  bool FailLevels = true;
  uint64_t Served = 0;
};

/// Sends one raw frame: length prefix + type byte + payload bytes.
void writeRawFrame(Transport &T, uint8_t Type,
                   const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Frame;
  uint32_t Size = (uint32_t)Payload.size() + 1;
  for (int I = 0; I < 4; ++I)
    Frame.push_back((uint8_t)(Size >> (8 * I)));
  Frame.push_back(Type);
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  ASSERT_TRUE(T.writeBytes(Frame.data(), Frame.size()));
}

/// One connection, requests that wait for their answer as long as a
/// test may take, and no prediction cache: every request reaches the
/// server, whose answers the tests count.
ResilientModelClient::Config blockingConfig() {
  ResilientModelClient::Config C;
  C.RequestTimeoutMs = 10000;
  C.CacheCapacity = 0;
  return C;
}

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

TEST(Message, RoundTripAllTypes) {
  auto [A, B] = InProcessPipe::makePair();
  {
    Message M;
    M.Type = MsgType::Hello;
    M.Version = 1;
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    ASSERT_TRUE(recvMessage(*B, Out));
    EXPECT_EQ(Out.Type, MsgType::Hello);
    EXPECT_EQ(Out.Version, 1);
  }
  {
    Message M;
    M.Type = MsgType::Features;
    M.Level = OptLevel::Hot;
    for (unsigned I = 0; I < NumFeatures; ++I)
      M.FeatureValues.push_back((double)I * 0.25);
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    ASSERT_TRUE(recvMessage(*B, Out));
    EXPECT_EQ(Out.Type, MsgType::Features);
    EXPECT_EQ(Out.Level, OptLevel::Hot);
    ASSERT_EQ(Out.FeatureValues.size(), (size_t)NumFeatures);
    EXPECT_DOUBLE_EQ(Out.FeatureValues[70], 70 * 0.25);
  }
  {
    Message M;
    M.Type = MsgType::Modifier;
    M.ModifierBits = 0x123456789abcdefULL;
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    ASSERT_TRUE(recvMessage(*B, Out));
    EXPECT_EQ(Out.ModifierBits, 0x123456789abcdefULL);
  }
  {
    Message M;
    M.Type = MsgType::Error;
    M.Text = "no model for level";
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    ASSERT_TRUE(recvMessage(*B, Out));
    EXPECT_EQ(Out.Type, MsgType::Error);
    EXPECT_EQ(Out.Text, "no model for level");
  }
  {
    Message M;
    M.Type = MsgType::Bye;
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    ASSERT_TRUE(recvMessage(*B, Out));
    EXPECT_EQ(Out.Type, MsgType::Bye);
  }
}

TEST(Message, RejectsMalformedFrames) {
  auto [A, B] = InProcessPipe::makePair();
  // Oversized length prefix.
  uint8_t Huge[4] = {0xff, 0xff, 0xff, 0x7f};
  A->writeBytes(Huge, 4);
  Message Out;
  EXPECT_FALSE(recvMessage(*B, Out));
  // Bad level inside a Features frame.
  auto [C, D] = InProcessPipe::makePair();
  uint8_t Frame[] = {4, 0, 0, 0, (uint8_t)MsgType::Features, 9, 0, 0};
  C->writeBytes(Frame, sizeof(Frame));
  EXPECT_FALSE(recvMessage(*D, Out));
}

TEST(Message, EofOnClose) {
  auto [A, B] = InProcessPipe::makePair();
  A->close();
  Message Out;
  EXPECT_FALSE(recvMessage(*B, Out));
}

TEST(Service, InProcessClientServerSession) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  std::thread Server([&] { serveModel(*ServerEnd, Backend); });
  ResilientModelClient Client(std::move(ClientEnd), blockingConfig());

  FeatureVector F;
  F.set(CF_TreeNodes, 40);
  F.set(CF_Arguments, 2);
  std::optional<uint64_t> Bits =
      Client.requestModifier(OptLevel::Warm, F);
  ASSERT_TRUE(Bits.has_value());
  EXPECT_EQ(*Bits, 42u + (uint64_t)OptLevel::Warm);

  // Uncovered level: server answers Error, client maps to nullopt.
  EXPECT_FALSE(Client.requestModifier(OptLevel::Scorching, F).has_value());

  Client.bye();
  Server.join();
  EXPECT_EQ(Backend.Served, 1u);
  EXPECT_EQ(Client.counters().ErrorReplies, 1u);
}

TEST(Service, NamedPipeSession) {
  char Template[] = "/tmp/jitml_test_fifo_XXXXXX";
  std::string Dir = mkdtemp(Template);
  std::string ToServer = Dir + "/c2s";
  std::string ToClient = Dir + "/s2c";
  ASSERT_TRUE(FifoTransport::createPipes(ToServer, ToClient));

  StubBackend Backend;
  std::thread Server([&] {
    auto T = FifoTransport::open(ToServer, ToClient, /*IsServer=*/true);
    ASSERT_NE(T, nullptr);
    serveModel(*T, Backend);
  });
  auto T = FifoTransport::open(ToServer, ToClient, /*IsServer=*/false);
  ASSERT_NE(T, nullptr);
  ResilientModelClient Client(std::move(T), blockingConfig());
  FeatureVector F;
  F.set(CF_TreeNodes, 7);
  std::optional<uint64_t> Bits = Client.requestModifier(OptLevel::Cold, F);
  ASSERT_TRUE(Bits.has_value());
  EXPECT_EQ(*Bits, 7u);
  Client.bye();
  Server.join();
  ::unlink(ToServer.c_str());
  ::unlink(ToClient.c_str());
  ::rmdir(Dir.c_str());
}

TEST(Service, ManySequentialRequests) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  Backend.FailLevels = false;
  std::thread Server([&] { serveModel(*ServerEnd, Backend); });
  ResilientModelClient Client(std::move(ClientEnd), blockingConfig());
  for (unsigned I = 0; I < 200; ++I) {
    FeatureVector F;
    F.set(CF_TreeNodes, I);
    auto Bits = Client.requestModifier(OptLevel::Cold, F);
    ASSERT_TRUE(Bits.has_value());
    EXPECT_EQ(*Bits, (uint64_t)I);
  }
  Client.bye();
  Server.join();
  EXPECT_EQ(Backend.Served, 200u);
}

//===----------------------------------------------------------------------===//
// Deadline-aware transports
//===----------------------------------------------------------------------===//

TEST(Transport, ByteQueueTimeoutConsumesNothing) {
  ByteQueue Q;
  uint8_t Byte = 7;
  Q.push(&Byte, 1);
  uint8_t Buf[4];
  // Not enough bytes: times out without consuming the one that is there.
  EXPECT_EQ(Q.popFor(Buf, 4, 20), IoStatus::Timeout);
  EXPECT_EQ(Q.popFor(Buf, 1, 20), IoStatus::Ok);
  EXPECT_EQ(Buf[0], 7);
  Q.close();
  EXPECT_EQ(Q.popFor(Buf, 1, 20), IoStatus::Closed);
}

TEST(Transport, RecvTimesOutOnSilentPeer) {
  auto [A, B] = InProcessPipe::makePair();
  (void)A;
  Message Out;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(recvMessageFor(*B, Out, 30), RecvStatus::Timeout);
  EXPECT_GE(elapsedMs(Start), 25.0);
  EXPECT_LT(elapsedMs(Start), 5000.0);
}

TEST(Transport, FifoReadTimesOutOnSilentPeer) {
  char Template[] = "/tmp/jitml_test_fifo_XXXXXX";
  std::string Dir = mkdtemp(Template);
  std::string ToServer = Dir + "/c2s";
  std::string ToClient = Dir + "/s2c";
  ASSERT_TRUE(FifoTransport::createPipes(ToServer, ToClient));
  std::unique_ptr<FifoTransport> ServerT;
  std::thread Server([&] {
    ServerT = FifoTransport::open(ToServer, ToClient, /*IsServer=*/true);
  });
  auto T = FifoTransport::open(ToServer, ToClient, /*IsServer=*/false);
  Server.join();
  ASSERT_NE(T, nullptr);
  ASSERT_NE(ServerT, nullptr);
  uint8_t Buf[8];
  EXPECT_EQ(T->readBytesFor(Buf, 8, 30), IoStatus::Timeout);
  // Bytes already in the pipe are delivered within the deadline.
  uint8_t Data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(ServerT->writeBytes(Data, 8));
  EXPECT_EQ(T->readBytesFor(Buf, 8, 1000), IoStatus::Ok);
  EXPECT_EQ(Buf[7], 8);
  ServerT.reset(); // close both fds -> EOF on the client side
  EXPECT_EQ(T->readBytesFor(Buf, 1, 1000), IoStatus::Closed);
  ::unlink(ToServer.c_str());
  ::unlink(ToClient.c_str());
  ::rmdir(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// Frame-level hardening
//===----------------------------------------------------------------------===//

TEST(Message, TruncatedFrameIsClosedNotHang) {
  auto [A, B] = InProcessPipe::makePair();
  // Header promises 10 payload bytes; only 3 ever arrive.
  uint8_t Partial[] = {10, 0, 0, 0, (uint8_t)MsgType::Error, 'h', 'i'};
  A->writeBytes(Partial, sizeof(Partial));
  A->close();
  Message Out;
  EXPECT_EQ(recvMessageFor(*B, Out, 1000), RecvStatus::Closed);
}

TEST(Message, OversizeAndZeroLengthFramesAreFatal) {
  {
    auto [A, B] = InProcessPipe::makePair();
    uint8_t Huge[4] = {0xff, 0xff, 0xff, 0x7f};
    A->writeBytes(Huge, 4);
    Message Out;
    EXPECT_EQ(recvMessageFor(*B, Out, 1000), RecvStatus::Closed);
  }
  {
    auto [A, B] = InProcessPipe::makePair();
    uint8_t Zero[4] = {0, 0, 0, 0};
    A->writeBytes(Zero, 4);
    Message Out;
    EXPECT_EQ(recvMessageFor(*B, Out, 1000), RecvStatus::Closed);
  }
}

TEST(Message, UnknownTypeAndBadContentAreMalformedNotFatal) {
  auto [A, B] = InProcessPipe::makePair();
  Message Out;
  writeRawFrame(*A, /*Type=*/99, {1, 2, 3});
  EXPECT_EQ(recvMessageFor(*B, Out, 1000), RecvStatus::Malformed);
  // Wrong-size Hello payload: frame consumed, stream still aligned.
  writeRawFrame(*A, (uint8_t)MsgType::Hello, {1, 2});
  EXPECT_EQ(recvMessageFor(*B, Out, 1000), RecvStatus::Malformed);
  // The next well-formed message still decodes.
  Message M;
  M.Type = MsgType::Modifier;
  M.ModifierBits = 5;
  ASSERT_TRUE(sendMessage(*A, M));
  EXPECT_EQ(recvMessageFor(*B, Out, 1000), RecvStatus::Ok);
  EXPECT_EQ(Out.ModifierBits, 5u);
}

TEST(Message, CountingTransportSeesFraming) {
  auto [A, B] = InProcessPipe::makePair();
  CountingTransport CA(*A), CB(*B);
  Message M;
  M.Type = MsgType::Modifier;
  M.ModifierBits = 1;
  ASSERT_TRUE(sendMessage(CA, M));
  Message Out;
  ASSERT_TRUE(recvMessage(CB, Out));
  // 4-byte length + 1-byte type + 8-byte modifier payload.
  EXPECT_EQ(CA.bytesSent(), 13u);
  EXPECT_EQ(CB.bytesReceived(), 13u);
}

//===----------------------------------------------------------------------===//
// Server-side protocol validation
//===----------------------------------------------------------------------===//

TEST(Service, RejectsWrongFeatureCountWithErrorReply) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  std::thread Server([&] { serveModel(*ServerEnd, Backend); });
  // Hand-craft a Features frame with only 3 components.
  std::vector<uint8_t> Payload;
  Payload.push_back(0); // level = cold
  Payload.push_back(3);
  Payload.push_back(0); // count u16le = 3
  Payload.resize(Payload.size() + 3 * 8, 0);
  writeRawFrame(*ClientEnd, (uint8_t)MsgType::Features, Payload);
  Message Reply;
  ASSERT_TRUE(recvMessage(*ClientEnd, Reply));
  EXPECT_EQ(Reply.Type, MsgType::Error);
  EXPECT_EQ(Reply.Text, "feature count mismatch");
  // The malformed request never reached the backend and the session
  // survives: a well-formed request still gets served.
  ResilientModelClient Client(std::move(ClientEnd), blockingConfig());
  FeatureVector F;
  F.set(CF_TreeNodes, 4);
  auto Bits = Client.requestModifier(OptLevel::Cold, F);
  ASSERT_TRUE(Bits.has_value());
  EXPECT_EQ(*Bits, 4u);
  Client.bye();
  Server.join();
  EXPECT_EQ(Backend.Served, 1u);
}

TEST(Service, MalformedFrameGetsErrorReplyAndSessionSurvives) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  std::thread Server([&] { serveModel(*ServerEnd, Backend); });
  writeRawFrame(*ClientEnd, /*Type=*/42, {9, 9, 9});
  Message Reply;
  ASSERT_TRUE(recvMessage(*ClientEnd, Reply));
  EXPECT_EQ(Reply.Type, MsgType::Error);
  EXPECT_EQ(Reply.Text, "malformed frame");
  // The session survives: the handshake and a request still succeed.
  ResilientModelClient Client(std::move(ClientEnd), blockingConfig());
  FeatureVector F;
  F.set(CF_TreeNodes, 5);
  EXPECT_EQ(Client.requestModifier(OptLevel::Cold, F),
            std::optional<uint64_t>(5));
  Client.bye();
  Server.join();
}

//===----------------------------------------------------------------------===//
// ResilientModelClient: timeout, retry, fallback, cache
//===----------------------------------------------------------------------===//

namespace {

ResilientModelClient::Config fastConfig() {
  ResilientModelClient::Config C;
  C.RequestTimeoutMs = 50;
  C.MaxAttempts = 2;
  C.InitialBackoffMs = 1;
  return C;
}

/// Reads frames forever without ever answering — a hung model service.
void silentServer(Transport &T) {
  Message In;
  while (recvMessage(T, In))
    ;
}

} // namespace

TEST(Resilient, TimeoutThenFallbackWithinDeadline) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  InProcessPipe *ServerRaw = ServerEnd.get();
  std::thread Server([ServerRaw] { silentServer(*ServerRaw); });
  ResilientModelClient Client(std::move(ClientEnd), fastConfig());
  FeatureVector F;
  F.set(CF_TreeNodes, 11);
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Client.requestModifier(OptLevel::Cold, F).has_value());
  // 2 attempts x 50ms + 1ms backoff, plus slack: far below a hang.
  EXPECT_LT(elapsedMs(Start), 2000.0);
  BridgeCounters C = Client.counters();
  EXPECT_GE(C.Timeouts, 1u);
  EXPECT_EQ(C.Fallbacks, 1u);
  EXPECT_FALSE(Client.usable()); // poisoned: no reconnect factory
  // Later requests fall back immediately without waiting for the timeout.
  Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Client.requestModifier(OptLevel::Warm, F).has_value());
  EXPECT_LT(elapsedMs(Start), 50.0);
  ServerRaw->close();
  Server.join();
}

TEST(Resilient, RetryReconnectsThroughFactory) {
  // First connection: a server that dies without answering. Second
  // connection: a healthy serveModel. The client must retry through the
  // factory and succeed.
  StubBackend Backend;
  Backend.FailLevels = false;
  std::vector<std::unique_ptr<InProcessPipe>> ServerEnds;
  std::vector<std::thread> Servers;
  int Connects = 0;
  auto Factory = [&]() -> std::unique_ptr<Transport> {
    auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
    ServerEnds.push_back(std::move(ServerEnd));
    InProcessPipe *Raw = ServerEnds.back().get();
    if (Connects++ == 0)
      Servers.emplace_back([Raw] { Raw->close(); }); // dead on arrival
    else
      Servers.emplace_back([Raw, &Backend] { serveModel(*Raw, Backend); });
    return std::move(ClientEnd);
  };
  ResilientModelClient Client(Factory, fastConfig());
  FeatureVector F;
  F.set(CF_TreeNodes, 21);
  auto Bits = Client.requestModifier(OptLevel::Cold, F);
  ASSERT_TRUE(Bits.has_value());
  EXPECT_EQ(*Bits, 21u);
  BridgeCounters C = Client.counters();
  EXPECT_EQ(C.Reconnects, 2u);
  EXPECT_GE(C.Retries, 1u);
  EXPECT_EQ(C.Fallbacks, 0u);
  Client.bye();
  for (auto &S : Servers)
    S.join();
}

TEST(Resilient, CacheSkipsRoundTripsAndCountsHits) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  Backend.FailLevels = false;
  InProcessPipe *ServerRaw = ServerEnd.get();
  std::thread Server([ServerRaw, &Backend] { serveModel(*ServerRaw, Backend); });
  ResilientModelClient Client(std::move(ClientEnd), fastConfig());
  FeatureVector F;
  F.set(CF_TreeNodes, 33);
  for (int I = 0; I < 5; ++I) {
    auto Bits = Client.requestModifier(OptLevel::Hot, F);
    ASSERT_TRUE(Bits.has_value());
    EXPECT_EQ(*Bits, 33u + (uint64_t)OptLevel::Hot);
  }
  // Same features at another level is a distinct cache entry.
  ASSERT_TRUE(Client.requestModifier(OptLevel::Warm, F).has_value());
  BridgeCounters C = Client.counters();
  EXPECT_EQ(C.Requests, 6u);
  EXPECT_EQ(C.WireRequests, 2u);
  EXPECT_EQ(C.CacheHits, 4u);
  EXPECT_GT(C.BytesSent, 0u);
  EXPECT_GT(C.BytesReceived, 0u);
  EXPECT_EQ(Backend.Served, 2u);
  Client.bye();
  Server.join();
}

TEST(Resilient, ErrorRepliesAreCachedAsFallbacks) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend; // FailLevels: scorching answers Error
  InProcessPipe *ServerRaw = ServerEnd.get();
  std::thread Server([ServerRaw, &Backend] { serveModel(*ServerRaw, Backend); });
  ResilientModelClient Client(std::move(ClientEnd), fastConfig());
  FeatureVector F;
  F.set(CF_TreeNodes, 9);
  EXPECT_FALSE(Client.requestModifier(OptLevel::Scorching, F).has_value());
  EXPECT_FALSE(Client.requestModifier(OptLevel::Scorching, F).has_value());
  BridgeCounters C = Client.counters();
  EXPECT_EQ(C.WireRequests, 1u); // second answer came from the cache
  EXPECT_EQ(C.ErrorReplies, 1u);
  EXPECT_EQ(C.CacheHits, 1u);
  EXPECT_EQ(C.Fallbacks, 2u);
  EXPECT_TRUE(Client.usable()); // an Error reply is not a failure
  Client.bye();
  Server.join();
}

//===----------------------------------------------------------------------===//
// VM-level degradation: the acceptance scenarios
//===----------------------------------------------------------------------===//

TEST(Resilient, VmCompletesCompilationWhenServiceDiesMidRun) {
  Program P;
  uint32_t Method = jitml::testing::addSumToN(P);
  ASSERT_TRUE(verifyProgram(P).ok());

  // A server that answers exactly one prediction, then drops dead.
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  InProcessPipe *ServerRaw = ServerEnd.get();
  std::thread Server([ServerRaw] {
    Message In;
    uint64_t Answered = 0;
    while (recvMessage(*ServerRaw, In)) {
      Message Reply;
      if (In.Type == MsgType::Hello) {
        Reply.Type = MsgType::Hello;
        Reply.Version = 1;
      } else if (In.Type == MsgType::Features) {
        if (Answered++ > 0)
          break; // die mid-run without replying
        Reply.Type = MsgType::Modifier;
        Reply.ModifierBits = PlanModifier().raw();
      } else {
        break;
      }
      if (!sendMessage(*ServerRaw, Reply))
        break;
    }
    ServerRaw->close();
  });

  ResilientModelClient Client(std::move(ClientEnd), fastConfig());
  VirtualMachine::Config Cfg;
  VirtualMachine VM(P, Cfg);
  VM.setModifierHook(makeResilientHook(Client));

  auto Start = std::chrono::steady_clock::now();
  VM.compileMethod(Method, OptLevel::Cold);  // served by the model
  VM.compileMethod(Method, OptLevel::Warm);  // server dies: fallback
  VM.compileMethod(Method, OptLevel::Hot);   // poisoned: instant fallback
  EXPECT_LT(elapsedMs(Start), 5000.0) << "compilation must not hang";

  // All three compilations completed and the method still runs.
  EXPECT_NE(VM.nativeOf(Method), nullptr);
  ExecResult R = VM.invoke(Method, {Value::ofI(10)});
  ASSERT_FALSE(R.Exceptional);
  EXPECT_EQ(R.Ret.I, 45);
  EXPECT_EQ(VM.stats().Compilations, 3u);

  BridgeCounters C = Client.counters();
  EXPECT_GE(C.Fallbacks, 1u);
  EXPECT_GE(C.Timeouts + C.Fallbacks, 2u);
  Server.join();
}

TEST(Resilient, RepeatedCompilationsHitTheCache) {
  Program P;
  uint32_t Method = jitml::testing::addSumToN(P);
  ASSERT_TRUE(verifyProgram(P).ok());

  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  Backend.FailLevels = false;
  InProcessPipe *ServerRaw = ServerEnd.get();
  std::thread Server([ServerRaw, &Backend] { serveModel(*ServerRaw, Backend); });
  ResilientModelClient Client(std::move(ClientEnd), fastConfig());
  VirtualMachine::Config Cfg;
  VirtualMachine VM(P, Cfg);
  VM.setModifierHook(makeResilientHook(Client));

  // The collection mode's recompile-every-N policy re-sends the same
  // feature vector; only the first round trip should hit the wire.
  for (int I = 0; I < 8; ++I)
    VM.compileMethod(Method, OptLevel::Warm);

  BridgeCounters C = Client.counters();
  EXPECT_EQ(C.Requests, 8u);
  EXPECT_GT(C.CacheHits, 0u);
  EXPECT_LT(C.WireRequests, C.Requests);
  EXPECT_EQ(C.WireRequests, 1u);
  Client.bye();
  Server.join();
  EXPECT_EQ(Backend.Served, 1u);
}

TEST(Vm, ThrowingModifierHookFallsBackToBasePlan) {
  Program P;
  uint32_t Method = jitml::testing::addSumToN(P);
  VirtualMachine::Config Cfg;
  VirtualMachine VM(P, Cfg);
  VM.setModifierHook([](uint32_t, OptLevel, const FeatureVector &)
                         -> PlanModifier {
    throw std::runtime_error("model exploded");
  });
  VM.compileMethod(Method, OptLevel::Warm);
  EXPECT_NE(VM.nativeOf(Method), nullptr);
  EXPECT_EQ(VM.stats().HookFailures, 1u);
  EXPECT_EQ(VM.stats().NullModifierCompilations, 1u);
  ExecResult R = VM.invoke(Method, {Value::ofI(5)});
  ASSERT_FALSE(R.Exceptional);
  EXPECT_EQ(R.Ret.I, 10);
}

TEST(Resilient, CountersRenderAsTable) {
  BridgeCounters C;
  C.Requests = 3;
  C.CacheHits = 2;
  std::string Text = C.toText();
  EXPECT_NE(Text.find("requests"), std::string::npos);
  EXPECT_NE(Text.find("cacheHits"), std::string::npos);
}
