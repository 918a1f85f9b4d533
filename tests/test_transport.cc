/**
 * @file
 * Transport-layer tests (serve/transport.hh): host:port parsing, the
 * bounded line framing with its poison semantics, read deadlines, and
 * real AF_UNIX / TCP listener round trips on the loopback.
 *
 * The framing contract under test is the hostile-network one: an
 * unbounded line or an embedded NUL must come back as a typed status
 * (and keep coming back -- the channel is poisoned), a vanished peer
 * must surface as Eof/Error, and a deadline must expire as Timeout
 * with the partial line intact for the next read.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/transport.hh"

#include "temp_path.hh"

namespace ev8
{
namespace
{

using serveio::LineChannel;
using serveio::LineStatus;

/** A connected AF_UNIX socket pair; each end wrapped when needed. */
struct SocketPair
{
    int a = -1;
    int b = -1;

    SocketPair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = fds[0];
        b = fds[1];
    }

    /** Closes whatever a LineChannel did not take ownership of. */
    ~SocketPair()
    {
        if (a >= 0)
            ::close(a);
        if (b >= 0)
            ::close(b);
    }

    int takeA() { int fd = a; a = -1; return fd; }
    int takeB() { int fd = b; b = -1; return fd; }
};

TEST(Transport, ParseHostPortAcceptsHostColonPort)
{
    std::string host;
    uint16_t port = 7;
    std::string err;
    ASSERT_TRUE(serveio::parseHostPort("127.0.0.1:7517", host, port, err))
        << err;
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 7517);

    // Port 0 is the ephemeral bind and must parse.
    ASSERT_TRUE(serveio::parseHostPort("localhost:0", host, port, err));
    EXPECT_EQ(host, "localhost");
    EXPECT_EQ(port, 0);
}

TEST(Transport, ParseHostPortRejectsGarbage)
{
    std::string host;
    uint16_t port = 0;
    std::string err;
    for (const char *bad : {"127.0.0.1", ":7517", "host:", "host:port",
                            "host:-1", "host:65536", "host:12x", ""}) {
        EXPECT_FALSE(serveio::parseHostPort(bad, host, port, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Transport, LineStatusNamesAreStable)
{
    EXPECT_STREQ(serveio::lineStatusName(LineStatus::Ok), "ok");
    EXPECT_STREQ(serveio::lineStatusName(LineStatus::TooLong),
                 "too_long");
}

TEST(Transport, LineChannelRoundTripsLines)
{
    SocketPair pair;
    LineChannel tx(pair.takeA());
    LineChannel rx(pair.takeB());

    ASSERT_TRUE(tx.writeLine("{\"op\":\"ping\"}"));
    ASSERT_TRUE(tx.writeLine("second"));

    std::string line;
    ASSERT_EQ(rx.readLine(line, 1000), LineStatus::Ok);
    EXPECT_EQ(line, "{\"op\":\"ping\"}");
    ASSERT_EQ(rx.readLine(line, 1000), LineStatus::Ok);
    EXPECT_EQ(line, "second");
}

TEST(Transport, ReadDeadlineExpiresAsTimeoutAndResumesThePartialLine)
{
    SocketPair pair;
    const int txFd = pair.takeA();
    LineChannel rx(pair.takeB());

    // Half a line, then silence: the deadline must expire without
    // consuming the partial bytes.
    ASSERT_EQ(::send(txFd, "half", 4, 0), 4);
    std::string line;
    EXPECT_EQ(rx.readLine(line, 50), LineStatus::Timeout);

    // The rest arrives; the next read completes the original line.
    ASSERT_EQ(::send(txFd, "+half\n", 6, 0), 6);
    ASSERT_EQ(rx.readLine(line, 1000), LineStatus::Ok);
    EXPECT_EQ(line, "half+half");
    ::close(txFd);
}

TEST(Transport, OverlongLinePoisonsTheChannel)
{
    SocketPair pair;
    const int txFd = pair.takeA();
    LineChannel rx(pair.takeB(), /*max_line=*/64);

    const std::string flood(256, 'x'); // no newline anywhere
    ASSERT_EQ(::send(txFd, flood.data(), flood.size(), 0),
              static_cast<ssize_t>(flood.size()));

    std::string line;
    EXPECT_EQ(rx.readLine(line, 1000), LineStatus::TooLong);
    // Poisoned: the violation is permanent, even after more bytes.
    ASSERT_EQ(::send(txFd, "tail\n", 5, 0), 5);
    EXPECT_EQ(rx.readLine(line, 1000), LineStatus::TooLong);
    ::close(txFd);
}

TEST(Transport, EmbeddedNulIsRejectedBeforeAnyParser)
{
    SocketPair pair;
    const int txFd = pair.takeA();
    LineChannel rx(pair.takeB());

    const char evil[] = "{\"op\":\0\"ping\"}\n";
    ASSERT_EQ(::send(txFd, evil, sizeof(evil) - 1, 0),
              static_cast<ssize_t>(sizeof(evil) - 1));

    std::string line;
    EXPECT_EQ(rx.readLine(line, 1000), LineStatus::BadByte);
    EXPECT_EQ(rx.readLine(line, 1000), LineStatus::BadByte); // poisoned
    ::close(txFd);
}

TEST(Transport, OrderlyCloseIsEofTornFrameIsError)
{
    {
        SocketPair pair;
        LineChannel rx(pair.takeB());
        ::close(pair.a);
        pair.a = -1;
        std::string line;
        EXPECT_EQ(rx.readLine(line, 1000), LineStatus::Eof);
    }
    {
        // A peer that dies mid-line left a torn frame, not a clean EOF.
        SocketPair pair;
        LineChannel tx(pair.takeA());
        LineChannel rx(pair.takeB());
        tx.writePartialAndShutdown("{\"op\":\"wait\",...}", 7);
        std::string line;
        EXPECT_EQ(rx.readLine(line, 1000), LineStatus::Error);
    }
}

TEST(Transport, WriteLineReportsAVanishedPeer)
{
    SocketPair pair;
    LineChannel tx(pair.takeA());
    ::close(pair.b);
    pair.b = -1;
    // First write may land in the socket buffer; keep pushing until the
    // RST surfaces. Must return false eventually, never raise SIGPIPE.
    bool ok = true;
    for (int i = 0; ok && i < 64; ++i)
        ok = tx.writeLine("into the void");
    EXPECT_FALSE(ok);
}

TEST(Transport, TcpListenerBindsEphemeralPortAndServesALine)
{
    uint16_t port = 0;
    std::string err;
    const int listenFd = serveio::listenTcp("127.0.0.1", 0, port, err);
    ASSERT_GE(listenFd, 0) << err;
    EXPECT_NE(port, 0); // the ephemeral port was resolved

    std::thread server([&] {
        const int fd = serveio::acceptWithTimeout(listenFd, 2000);
        ASSERT_GE(fd, 0);
        LineChannel channel(fd);
        std::string line;
        ASSERT_EQ(channel.readLine(line, 2000), LineStatus::Ok);
        EXPECT_EQ(line, "hello");
        EXPECT_TRUE(channel.writeLine("world"));
    });

    const int clientFd = serveio::connectTcp("127.0.0.1", port, err);
    ASSERT_GE(clientFd, 0) << err;
    LineChannel client(clientFd);
    ASSERT_TRUE(client.writeLine("hello"));
    std::string line;
    ASSERT_EQ(client.readLine(line, 2000), LineStatus::Ok);
    EXPECT_EQ(line, "world");
    server.join();
    ::close(listenFd);
}

TEST(Transport, UnixListenerRoundTripsOverThePathSocket)
{
    const std::string path = uniqueTempPath("ev8_transport_test", ".sock");
    std::string err;
    const int listenFd = serveio::listenUnix(path, err);
    ASSERT_GE(listenFd, 0) << err;

    std::thread server([&] {
        const int fd = serveio::acceptWithTimeout(
            std::vector<int>{listenFd}, 2000);
        ASSERT_GE(fd, 0);
        LineChannel channel(fd);
        std::string line;
        ASSERT_EQ(channel.readLine(line, 2000), LineStatus::Ok);
        EXPECT_TRUE(channel.writeLine(line)); // echo
    });

    const int clientFd = serveio::connectUnix(path, err);
    ASSERT_GE(clientFd, 0) << err;
    LineChannel client(clientFd);
    ASSERT_TRUE(client.writeLine("echo me"));
    std::string line;
    ASSERT_EQ(client.readLine(line, 2000), LineStatus::Ok);
    EXPECT_EQ(line, "echo me");
    server.join();
    ::close(listenFd);
    std::remove(path.c_str());
}

TEST(Transport, AcceptTimesOutWithoutAClient)
{
    uint16_t port = 0;
    std::string err;
    const int listenFd = serveio::listenTcp("127.0.0.1", 0, port, err);
    ASSERT_GE(listenFd, 0) << err;
    EXPECT_EQ(serveio::acceptWithTimeout(listenFd, 20), -1);
    ::close(listenFd);
}

} // namespace
} // namespace ev8
