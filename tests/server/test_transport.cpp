// The shared frame transport over a socketpair: bounded reads of hostile
// length headers, EOF anywhere inside a frame, write/read round trips
// across the 64 KiB read step, a 4K tile frame read into a buffer of
// exactly its length, and a two-part frame larger than the socket buffer
// sent in several interrupted sends.
#include "server/transport.hpp"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"

namespace dwt::server {
namespace {

/// A connected pair of stream sockets, closed on scope exit.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void close_writer() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

/// Writes raw header bytes only: the frames under test are malformed or
/// header-only, which write_frame cannot produce.
void send_raw(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

std::vector<std::uint8_t> header(std::uint32_t len) {
  return {static_cast<std::uint8_t>(len & 0xFF),
          static_cast<std::uint8_t>((len >> 8) & 0xFF),
          static_cast<std::uint8_t>((len >> 16) & 0xFF),
          static_cast<std::uint8_t>(len >> 24)};
}

long long vm_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
  }
  ADD_FAILURE() << "VmRSS missing from /proc/self/status";
  return 0;
}

TEST(FrameTransport, BareMaximalHeaderCostsNoMemoryUntilBytesArrive) {
  SocketPair sp;
  const long long before = vm_rss_bytes();
  FrameStatus got = FrameStatus::kOk;
  std::uint32_t declared = 0;
  std::vector<std::uint8_t> payload;
  std::thread reader(
      [&] { got = read_frame(sp.fds[0], &payload, &declared); });
  send_raw(sp.fds[1], header(kMaxFrameBytes));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const long long grown = vm_rss_bytes() - before;
  sp.close_writer();
  reader.join();
  EXPECT_LT(grown, 16LL << 20) << "VmRSS grew by " << (grown >> 20) << " MiB";
  EXPECT_EQ(got, FrameStatus::kClosed);
  EXPECT_EQ(declared, kMaxFrameBytes);
}

TEST(FrameTransport, RejectsOutOfRangeLengthsAndReportsThem) {
  for (const std::uint32_t len :
       {std::uint32_t{0}, kMaxFrameBytes + 1, std::uint32_t{0xFFFFFFFF}}) {
    SocketPair sp;
    send_raw(sp.fds[1], header(len));
    std::vector<std::uint8_t> payload;
    std::uint32_t declared = 12345;
    EXPECT_EQ(read_frame(sp.fds[0], &payload, &declared),
              FrameStatus::kBadLength)
        << len;
    EXPECT_EQ(declared, len);
    EXPECT_TRUE(payload.empty());
  }
}

TEST(FrameTransport, EofInsideHeaderOrPayloadIsClosed) {
  const std::vector<std::vector<std::uint8_t>> partial = {
      {},                                   // nothing at all
      {0x10, 0x00},                         // half a header
      {0x10, 0x00, 0x00, 0x00, 1, 2, 3}};  // 3 of 16 payload bytes
  for (const std::vector<std::uint8_t>& bytes : partial) {
    SocketPair sp;
    if (!bytes.empty()) send_raw(sp.fds[1], bytes);
    sp.close_writer();
    std::vector<std::uint8_t> payload;
    std::uint32_t declared = 0;
    EXPECT_EQ(read_frame(sp.fds[0], &payload, &declared),
              FrameStatus::kClosed)
        << bytes.size() << " bytes before EOF";
  }
}

TEST(FrameTransport, WriteThenReadRoundTripsAcrossChunkBoundaries) {
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  for (const std::size_t size : {std::size_t{1}, kChunk - 1, kChunk + 1,
                                 (std::size_t{3} << 20) + 7}) {
    std::vector<std::uint8_t> sent(size);
    for (std::size_t i = 0; i < size; ++i) {
      sent[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
    }
    SocketPair sp;
    bool wrote = false;
    // The socket buffer is smaller than the larger frames, so the writer
    // needs its own thread.
    std::thread writer([&] { wrote = write_frame(sp.fds[1], sent); });
    std::vector<std::uint8_t> got;
    std::uint32_t declared = 0;
    EXPECT_EQ(read_frame(sp.fds[0], &got, &declared), FrameStatus::kOk);
    writer.join();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(declared, size);
    EXPECT_EQ(got, sent) << size << " bytes";
  }
}

TEST(FrameTransport, LastGrowthStepEndsAtTheDeclaredLength) {
  // The size of a 3840x2160 PGM tile request: the buffer that holds it must
  // not round up past the frame (it becomes the request's payload).
  constexpr std::size_t kFrame = 8294430;
  std::vector<std::uint8_t> sent(kFrame);
  for (std::size_t i = 0; i < kFrame; ++i) {
    sent[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  }
  SocketPair sp;
  bool wrote = false;
  std::thread writer([&] { wrote = write_frame(sp.fds[1], sent); });
  std::vector<std::uint8_t> got;
  std::uint32_t declared = 0;
  EXPECT_EQ(read_frame(sp.fds[0], &got, &declared), FrameStatus::kOk);
  writer.join();
  EXPECT_TRUE(wrote);
  EXPECT_EQ(declared, kFrame);
  EXPECT_EQ(got.capacity(), kFrame);
  EXPECT_EQ(got, sent);
}

TEST(FrameTransport, TwoPartFrameLargerThanTheSocketBufferArrivesWhole) {
  SocketPair sp;
  int sndbuf = 0;
  socklen_t optlen = sizeof(sndbuf);
  ASSERT_EQ(
      ::getsockopt(sp.fds[1], SOL_SOCKET, SO_SNDBUF, &sndbuf, &optlen), 0);
  const std::vector<std::uint8_t> head = {1, 7, 2, 0x80, 0x07, 0x38, 0x04};
  std::vector<std::uint8_t> tail(4 * static_cast<std::size_t>(sndbuf) + 13);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    tail[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  }
  // Nothing reads until the writer has filled the socket buffer and
  // waits; a signal then ends that sendmsg early (no SA_RESTART), so the
  // frame goes out in several sends, each resuming where the last stopped.
  struct sigaction ignore {};
  struct sigaction old {};
  ignore.sa_handler = [](int) {};
  sigemptyset(&ignore.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &ignore, &old), 0);
  bool wrote = false;
  std::thread writer([&] { wrote = write_frame(sp.fds[1], head, tail); });
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::pthread_kill(writer.native_handle(), SIGUSR1);
  }
  std::vector<std::uint8_t> got;
  std::uint32_t declared = 0;
  EXPECT_EQ(read_frame(sp.fds[0], &got, &declared), FrameStatus::kOk);
  writer.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(wrote);
  std::vector<std::uint8_t> sent = head;
  sent.insert(sent.end(), tail.begin(), tail.end());
  EXPECT_EQ(declared, sent.size());
  EXPECT_EQ(got, sent);
}

TEST(FrameTransport, WriteToVanishedPeerFailsWithoutSignal) {
  SocketPair sp;
  ::close(sp.fds[0]);
  sp.fds[0] = -1;
  EXPECT_FALSE(write_frame(sp.fds[1], std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(FrameTransport, ConnectEndpointRejectsMalformedSpecs) {
  for (const char* spec : {"", "0", "65536", "80x", "-1", "unix:"}) {
    EXPECT_THROW((void)connect_endpoint(spec), std::runtime_error) << spec;
  }
}

}  // namespace
}  // namespace dwt::server
