/**
 * @file
 * One client connection (DESIGN.md §17.4).
 *
 * A Session sits between a transport (in-process client, TCP
 * connection) and the server's request queues. The transport side is
 * single-threaded per session: feed() splits the byte stream into
 * frames, decodes them, answers protocol errors immediately (into the
 * output buffer, attributed to the request id when it parsed), and
 * hands well-formed requests back for routing. The output side is
 * multi-writer: any query worker may complete a request for this
 * session at any time, so sendResponse() appends the encoded frame
 * under a mutex and wakes waiters; responses carry request ids, so no
 * cross-worker ordering is imposed (a client matches responses to
 * requests by id, not position).
 *
 * An oversized length prefix poisons the framing (see protocol.h);
 * the session emits one kTooLarge error and reports itself closing —
 * the transport flushes the output and drops the connection.
 */

#ifndef CRONO_SERVE_SESSION_H_
#define CRONO_SERVE_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "serve/protocol.h"

namespace crono::serve {

class Session {
  public:
    explicit Session(std::uint64_t id) : id_(id) {}

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    std::uint64_t id() const { return id_; }

    /**
     * Transport side: append raw bytes, decode complete frames.
     * Well-formed requests are appended to @p out; malformed frames
     * are answered directly into the output buffer. Single caller per
     * session.
     */
    void feed(std::span<const std::uint8_t> data,
              std::vector<Request>* out);

    /** True once framing poisoned — flush output, then disconnect. */
    bool
    closing() const
    {
        return closing_;
    }

    /** Worker side: encode @p r into the output buffer (thread-safe). */
    void sendResponse(const Response& r);

    /**
     * Drain buffered output bytes (thread-safe). With @p wait, blocks
     * until output is available or markDone() was called; returns
     * empty only when done and drained.
     */
    std::vector<std::uint8_t> takeOutput(bool wait = false);

    /** Unblock takeOutput(wait=true) forever (server shutdown). */
    void markDone();

  private:
    std::uint64_t id_;
    FrameSplitter splitter_; ///< transport thread only
    bool closing_ = false;   ///< transport thread only

    std::mutex outMutex_;
    std::condition_variable outCv_;
    std::vector<std::uint8_t> out_;
    bool done_ = false;
};

} // namespace crono::serve

#endif // CRONO_SERVE_SESSION_H_
