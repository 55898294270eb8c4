/**
 * @file
 * TCP transport for the serve stack (POSIX sockets, loopback-first).
 *
 * TcpListener accepts connections on behalf of a Server: each
 * connection gets a Session and two threads — a reader pumping raw
 * bytes into Server::feed (framing, decode and routing happen in the
 * session/server layers; this file never parses a byte) and a writer
 * draining the session's output buffer back to the socket. TcpClient
 * is the matching synchronous client, protocol-identical to the
 * in-process serve::Client so every conformance test result holds
 * across the wire.
 *
 * This is deliberately thread-per-connection: the server's capacity
 * story lives in its query workers and the engine's result cache,
 * not in connection counts, and the tests/bench drive tens of
 * connections, not tens of thousands.
 */

#ifndef CRONO_SERVE_NET_H_
#define CRONO_SERVE_NET_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"

namespace crono::serve {

class TcpListener {
  public:
    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral; see port()). Throws
     * nothing: check port() != 0 / start() return for success.
     */
    TcpListener(Server& server, std::uint16_t port);

    /** Stops and joins if still running. */
    ~TcpListener();

    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    /** The bound port (0 when binding failed). */
    std::uint16_t port() const { return port_; }

    /** Spawn the acceptor. @return false when binding failed. */
    bool start();

    /** Close the listener and every connection; join all threads. */
    void stop();

  private:
    void acceptLoop();
    void connectionLoop(int fd);

    Server& server_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptor_;

    std::mutex connMutex_;
    std::vector<int> connFds_;
    std::vector<std::thread> connThreads_;
};

/** Blocking client for a TcpListener-served endpoint. */
class TcpClient {
  public:
    TcpClient(const std::string& host, std::uint16_t port);

    ~TcpClient();

    TcpClient(const TcpClient&) = delete;
    TcpClient& operator=(const TcpClient&) = delete;

    bool connected() const { return fd_ >= 0; }

    /**
     * Assign a fresh id, send, block for the matching response.
     * Returns a kRejected response when the connection is gone.
     */
    Response call(Request req);

  private:
    int fd_ = -1;
    FrameSplitter rx_;
    std::uint32_t nextId_ = 1;
};

} // namespace crono::serve

#endif // CRONO_SERVE_NET_H_
