//===- bridge/Transports.cpp ----------------------------------------------===//

#include "bridge/Transports.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace jitml;

/// The one descriptor read loop behind the FIFO and socket transports:
/// reads exactly \p Size bytes, polling first while a deadline is set
/// (\p TimeoutMs >= 0 bounds the whole read). \p FifoEintr evaluates the
/// FIFO's simulated-EINTR point once per iteration; use a p/n schedule,
/// since an 'always' rule would spin this loop forever.
static IoStatus readFd(int Fd, uint8_t *Data, size_t Size, int TimeoutMs,
                       bool FifoEintr) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline;
  if (TimeoutMs >= 0)
    Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  size_t Done = 0;
  while (Done < Size) {
    if (FifoEintr && JITML_FAULT_POINT("transport.fifo.eintr"))
      continue; // simulated EINTR: retry the iteration without progress
    if (TimeoutMs >= 0) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
          Deadline - Clock::now());
      struct pollfd Pfd = {Fd, POLLIN, 0};
      int R = ::poll(&Pfd, 1, Left.count() > 0 ? (int)Left.count() : 0);
      if (R < 0) {
        if (errno == EINTR)
          continue;
        return IoStatus::Closed;
      }
      if (R == 0)
        return IoStatus::Timeout;
    }
    // POLLHUP may still have buffered bytes to drain; let read() decide.
    ssize_t N = ::read(Fd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN)
        continue; // interrupted syscall, not a dead peer
      return IoStatus::Closed;
    }
    if (N == 0)
      return IoStatus::Closed; // EOF: the writer closed its end
    Done += (size_t)N;
  }
  return IoStatus::Ok;
}

void ByteQueue::push(const uint8_t *Data, size_t Size) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Bytes.insert(Bytes.end(), Data, Data + Size);
  }
  Cv.notify_all();
}

IoStatus ByteQueue::popFor(uint8_t *Data, size_t Size, int TimeoutMs) {
  std::unique_lock<std::mutex> Lock(Mu);
  auto Ready = [&] { return Bytes.size() >= Size || Closed; };
  if (TimeoutMs < 0) {
    Cv.wait(Lock, Ready);
  } else if (!Cv.wait_for(Lock, std::chrono::milliseconds(TimeoutMs),
                          Ready)) {
    return IoStatus::Timeout; // nothing consumed: pops are all-or-nothing
  }
  if (Bytes.size() < Size)
    return IoStatus::Closed; // closed with insufficient data
  auto First = Bytes.begin();
  std::copy(First, First + (std::ptrdiff_t)Size, Data);
  Bytes.erase(First, First + (std::ptrdiff_t)Size);
  return IoStatus::Ok;
}

void ByteQueue::close() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
  }
  Cv.notify_all();
}

InProcessPipe::~InProcessPipe() { close(); }

bool InProcessPipe::writeBytes(const uint8_t *Data, size_t Size) {
  if (JITML_FAULT_POINT("transport.write.fail"))
    return false; // simulated dead pipe: nothing reaches the peer
  Out->push(Data, Size);
  return true;
}

IoStatus InProcessPipe::readBytesFor(uint8_t *Data, size_t Size,
                                     int TimeoutMs) {
  if (JITML_FAULT_POINT("transport.read.short"))
    return IoStatus::Closed; // simulated short read / peer hangup
  if (JITML_FAULT_POINT("transport.read.timeout"))
    return IoStatus::Timeout; // reply never arrives within the deadline
  uint64_t DelayMs = 10;
  if (JITML_FAULT_POINT_ARG("transport.read.delay", DelayMs))
    faultDelayMs(DelayMs); // slow peer: data arrives, but late
  return In->popFor(Data, Size, TimeoutMs);
}

void InProcessPipe::close() {
  Out->close();
  In->close();
}

std::pair<std::unique_ptr<InProcessPipe>, std::unique_ptr<InProcessPipe>>
InProcessPipe::makePair() {
  auto AtoB = std::make_shared<ByteQueue>();
  auto BtoA = std::make_shared<ByteQueue>();
  auto A = std::make_unique<InProcessPipe>(AtoB, BtoA);
  auto B = std::make_unique<InProcessPipe>(BtoA, AtoB);
  return {std::move(A), std::move(B)};
}

FifoTransport::~FifoTransport() {
  if (ReadFd >= 0)
    ::close(ReadFd);
  if (WriteFd >= 0)
    ::close(WriteFd);
}

bool FifoTransport::createPipes(const std::string &ToServerPath,
                                const std::string &ToClientPath) {
  ::unlink(ToServerPath.c_str());
  ::unlink(ToClientPath.c_str());
  if (::mkfifo(ToServerPath.c_str(), 0600) != 0)
    return false;
  if (::mkfifo(ToClientPath.c_str(), 0600) != 0) {
    ::unlink(ToServerPath.c_str());
    return false;
  }
  return true;
}

std::unique_ptr<FifoTransport>
FifoTransport::open(const std::string &ToServerPath,
                    const std::string &ToClientPath, bool IsServer) {
  // FIFO open order matters: both sides open their read end first in
  // opposite order to avoid deadlock. The server reads ToServer and
  // writes ToClient; opening read ends blocks until a writer appears, so
  // the client opens its write end first.
  int ReadFd = -1, WriteFd = -1;
  if (IsServer) {
    ReadFd = ::open(ToServerPath.c_str(), O_RDONLY);
    if (ReadFd < 0)
      return nullptr;
    WriteFd = ::open(ToClientPath.c_str(), O_WRONLY);
    if (WriteFd < 0) {
      ::close(ReadFd);
      return nullptr;
    }
  } else {
    WriteFd = ::open(ToServerPath.c_str(), O_WRONLY);
    if (WriteFd < 0)
      return nullptr;
    ReadFd = ::open(ToClientPath.c_str(), O_RDONLY);
    if (ReadFd < 0) {
      ::close(WriteFd);
      return nullptr;
    }
  }
  return std::unique_ptr<FifoTransport>(new FifoTransport(ReadFd, WriteFd));
}

bool FifoTransport::writeBytes(const uint8_t *Data, size_t Size) {
  size_t Done = 0;
  while (Done < Size) {
    // Simulated EINTR storm: retry the iteration without progress. Use a
    // p/n schedule — an 'always' rule would spin this loop forever.
    if (JITML_FAULT_POINT("transport.fifo.eintr"))
      continue;
    ssize_t N = ::write(WriteFd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue; // interrupted syscall, not a dead pipe
      return false;
    }
    if (N == 0)
      return false;
    Done += (size_t)N;
  }
  return true;
}

IoStatus FifoTransport::readBytesFor(uint8_t *Data, size_t Size,
                                     int TimeoutMs) {
  return readFd(ReadFd, Data, Size, TimeoutMs, /*FifoEintr=*/true);
}

//===----------------------------------------------------------------------===//
// SocketTransport / SocketListener
//===----------------------------------------------------------------------===//

namespace {

/// Fills \p Addr for \p Path; false when the path exceeds sun_path.
bool fillSockAddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

SocketTransport::~SocketTransport() {
  if (Fd >= 0)
    ::close(Fd);
}

std::unique_ptr<SocketTransport>
SocketTransport::connect(const std::string &Path) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr))
    return nullptr;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return nullptr;
  int R;
  do {
    R = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  } while (R < 0 && errno == EINTR);
  if (R < 0) {
    ::close(Fd);
    return nullptr;
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(Fd));
}

bool SocketTransport::writeBytes(const uint8_t *Data, size_t Size) {
  if (JITML_FAULT_POINT("transport.write.fail"))
    return false; // simulated dead socket: nothing reaches the peer
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::send(Fd, Data + Done, Size - Done, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false; // EPIPE/ECONNRESET: the peer went away
    }
    if (N == 0)
      return false;
    Done += (size_t)N;
  }
  return true;
}

IoStatus SocketTransport::readBytesFor(uint8_t *Data, size_t Size,
                                       int TimeoutMs) {
  if (JITML_FAULT_POINT("transport.read.short"))
    return IoStatus::Closed; // simulated short read / peer hangup
  if (JITML_FAULT_POINT("transport.read.timeout"))
    return IoStatus::Timeout; // reply never arrives within the deadline
  uint64_t DelayMs = 10;
  if (JITML_FAULT_POINT_ARG("transport.read.delay", DelayMs))
    faultDelayMs(DelayMs); // slow peer: data arrives, but late
  return readFd(Fd, Data, Size, TimeoutMs, /*FifoEintr=*/false);
}

ssize_t SocketTransport::readSome(uint8_t *Data, size_t Cap) {
  for (;;) {
    ssize_t N = ::read(Fd, Data, Cap);
    if (N < 0 && errno == EINTR)
      continue;
    return N;
  }
}

SocketListener::~SocketListener() { close(); }

void SocketListener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (!Path.empty()) {
    ::unlink(Path.c_str());
    Path.clear();
  }
}

std::unique_ptr<SocketListener> SocketListener::listen(const std::string &Path,
                                                       int Backlog) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr))
    return nullptr;
  ::unlink(Path.c_str()); // a stale socket file would make bind fail
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return nullptr;
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, Backlog) != 0) {
    ::close(Fd);
    return nullptr;
  }
  return std::unique_ptr<SocketListener>(new SocketListener(Fd, Path));
}

std::unique_ptr<SocketTransport> SocketListener::accept() {
  int Conn;
  do {
    Conn = ::accept(Fd, nullptr, nullptr);
  } while (Conn < 0 && errno == EINTR);
  if (Conn < 0)
    return nullptr;
  if (JITML_FAULT_POINT("serve.accept.fail")) {
    // Simulated accept failure AFTER the kernel handed us the connection:
    // drop it so the client sees a clean EOF and the poll loop does not
    // spin on a forever-pending backlog entry.
    ::close(Conn);
    return nullptr;
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(Conn));
}
