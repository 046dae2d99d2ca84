//===- bridge/Transports.h - In-process and named-pipe transports -*-C++-*-===//
///
/// \file
/// Three Transport implementations:
///
///  * InProcessPipe — a thread-safe byte queue pair for deterministic
///    tests and for running the model "service" on a thread inside the
///    same process;
///  * FifoTransport — POSIX named pipes, the mechanism the paper used:
///    "the machine-learned model is in a separate process and the
///    communication between Testarossa and the model uses named pipes ...
///    a flexible prototype enabling the machine-learned model to be
///    replaced without any change to the rest of the infrastructure."
///  * SocketTransport / SocketListener — Unix-domain SOCK_STREAM. Unlike a
///    FIFO pair, one listening socket accepts any number of concurrent
///    clients, which is what the multi-client serving daemon (src/serve)
///    is built on. The framed Message protocol is unchanged.
///
/// The FIFO and the socket read through one poll(2)/read(2) loop over a
/// descriptor; each keeps its own fault points around it.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BRIDGE_TRANSPORTS_H
#define JITML_BRIDGE_TRANSPORTS_H

#include "bridge/Message.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sys/types.h>

namespace jitml {

/// One direction of an in-process byte stream.
class ByteQueue {
public:
  void push(const uint8_t *Data, size_t Size);
  /// Takes \p Size bytes once that many are queued, giving up after
  /// \p TimeoutMs milliseconds (negative = wait forever). On Timeout no
  /// bytes are consumed; Closed when the queue closed short of \p Size.
  IoStatus popFor(uint8_t *Data, size_t Size, int TimeoutMs);
  void close();

private:
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<uint8_t> Bytes;
  bool Closed = false;
};

/// A bidirectional in-process pipe; create a pair with makePair().
class InProcessPipe : public Transport {
public:
  InProcessPipe(std::shared_ptr<ByteQueue> Out, std::shared_ptr<ByteQueue> In)
      : Out(std::move(Out)), In(std::move(In)) {}
  ~InProcessPipe() override;

  bool writeBytes(const uint8_t *Data, size_t Size) override;
  IoStatus readBytesFor(uint8_t *Data, size_t Size, int TimeoutMs) override;
  void close();

  /// Creates two connected endpoints (client, server).
  static std::pair<std::unique_ptr<InProcessPipe>,
                   std::unique_ptr<InProcessPipe>>
  makePair();

private:
  std::shared_ptr<ByteQueue> Out;
  std::shared_ptr<ByteQueue> In;
};

/// Named-pipe (FIFO) transport. Each side opens the pair of FIFOs in
/// opposite roles.
class FifoTransport : public Transport {
public:
  ~FifoTransport() override;

  /// Creates the two FIFO files (unlinking stale ones). Returns false when
  /// mkfifo fails.
  static bool createPipes(const std::string &ToServerPath,
                          const std::string &ToClientPath);

  /// Opens as the client (writes ToServer, reads ToClient) or the server.
  /// Open blocks until the peer arrives, exactly like real named pipes.
  static std::unique_ptr<FifoTransport>
  open(const std::string &ToServerPath, const std::string &ToClientPath,
       bool IsServer);

  bool writeBytes(const uint8_t *Data, size_t Size) override;
  /// poll(2)-based deadline; a Timeout may leave a partially-consumed
  /// frame in the pipe, so the connection must be abandoned afterwards.
  IoStatus readBytesFor(uint8_t *Data, size_t Size, int TimeoutMs) override;

private:
  FifoTransport(int ReadFd, int WriteFd) : ReadFd(ReadFd), WriteFd(WriteFd) {}
  int ReadFd = -1;
  int WriteFd = -1;
};

/// Unix-domain stream socket endpoint. Client side connects with
/// connect(); the server side gets one per accepted connection from
/// SocketListener::accept(). Writes use MSG_NOSIGNAL so a client that
/// vanished mid-reply surfaces as a failed write, not a fatal SIGPIPE.
class SocketTransport : public Transport {
public:
  ~SocketTransport() override;

  /// Connects to the daemon listening at \p Path; nullptr when nobody is
  /// listening (the resilient client's factory treats that as "service
  /// unreachable right now").
  static std::unique_ptr<SocketTransport> connect(const std::string &Path);

  bool writeBytes(const uint8_t *Data, size_t Size) override;
  /// poll(2)-based deadline; a Timeout may leave a partially-consumed
  /// frame in the stream, so the connection must be abandoned afterwards.
  IoStatus readBytesFor(uint8_t *Data, size_t Size, int TimeoutMs) override;

  /// One read(2) of whatever is available (up to \p Cap bytes). For event
  /// loops that poll the descriptor themselves: returns the byte count,
  /// 0 on EOF, -1 on error. Blocks only when the socket holds no data, so
  /// call it after poll() reported readability.
  ssize_t readSome(uint8_t *Data, size_t Cap);

  /// Raw descriptor for poll()-driven servers.
  int fd() const { return Fd; }

private:
  friend class SocketListener;
  explicit SocketTransport(int Fd) : Fd(Fd) {}
  int Fd = -1;
};

/// The accepting side of a Unix-domain socket. Owns the listening
/// descriptor and unlinks the socket path on close.
class SocketListener {
public:
  ~SocketListener();

  /// Binds and listens at \p Path (unlinking a stale socket file first);
  /// nullptr when bind/listen fails.
  static std::unique_ptr<SocketListener> listen(const std::string &Path,
                                                int Backlog = 64);

  /// Accepts one pending connection; nullptr on failure (including the
  /// forced "serve.accept.fail" fault, which still consumes the pending
  /// connection so an accept storm cannot wedge the poll loop).
  std::unique_ptr<SocketTransport> accept();

  int fd() const { return Fd; }
  const std::string &path() const { return Path; }
  void close();

private:
  SocketListener(int Fd, std::string Path) : Fd(Fd), Path(std::move(Path)) {}
  int Fd = -1;
  std::string Path;
};

} // namespace jitml

#endif // JITML_BRIDGE_TRANSPORTS_H
