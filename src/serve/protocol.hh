/**
 * @file
 * The serve wire protocol: line-oriented JSON, schema "ev8-serve-v1".
 *
 * One request object per line, one reply object per line, over an
 * AF_UNIX socket or a stdio loopback (bench_serve). Every reply carries
 * "ok": true plus op-specific fields, or "ok": false plus "error".
 *
 * Ops:
 *
 *     open     {"op":"open","session":S,"grid":G,
 *               "events":B,"metrics":B,"timing":B,"generic":B}
 *              creates session S over named grid G (admission control
 *              applies). Reply echoes the grid shape.
 *     start    {"op":"start","session":S}
 *              launches the session's thread.
 *     snapshot {"op":"snapshot","session":S}
 *              live progress: state, cells done/total, failure count,
 *              expiry mark. Never blocks on the run.
 *     wait     {"op":"wait","session":S}
 *              blocks until the session finishes; the reply carries the
 *              full per-cell output records (the checkpoint codec,
 *              sim/checkpoint.hh, one encoded line per cell in index
 *              order) and the structured CellFailures.
 *     ping     {"op":"ping","session":S}
 *              renews session S's lease (see EV8_SERVE_IDLE_TIMEOUT_MS)
 *              and echoes its state. The cheap keep-alive for a client
 *              that is neither polling nor waiting.
 *     stats    {"op":"stats"}          server-level counters.
 *     shutdown {"op":"shutdown"}       stop accepting; daemon exits.
 *
 * Typed refusals: an open refused by admission control comes back as
 * {"ok":false,"busy":true,"retry_after_ms":N,"error":...} -- the client
 * should back off N ms and retry. An open refused because the daemon is
 * draining (SIGTERM received) comes back as
 * {"ok":false,"draining":true,"error":...} -- the client should go
 * elsewhere; this daemon is on its way down. Plain {"ok":false,
 * "error":...} replies stay what they always were: protocol or server
 * errors with no retry semantics.
 *
 * The cell records are the byte-exact transport: a client that decodes
 * them and merges in index order reproduces the batch binary's
 * artifacts byte for byte (u64s ride as decimal strings, doubles as
 * IEEE-754 bit-pattern hex -- see GridCheckpoint's durability notes).
 * Within CellFailure, the u64 attempt_ns values ride as decimal strings
 * for the same reason.
 */

#ifndef EV8_SERVE_PROTOCOL_HH
#define EV8_SERVE_PROTOCOL_HH

#include <string>

#include "obs/json.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

/** Wire schema identifier, echoed in open replies. */
inline constexpr const char *kServeSchema = "ev8-serve-v1";

/** One parsed client request (op-specific fields defaulted). */
struct ServeRequest
{
    std::string op;      //!< open|start|snapshot|wait|ping|stats|shutdown
    std::string session; //!< every per-session op
    std::string grid;    //!< open: named grid id ("fig5")

    // open: the instrumentation the session's cells run with. These
    // must mirror the batch binary's instrument() decisions for the
    // served artifacts to be byte-identical.
    bool wantEvents = false;   //!< "events": buffer misprediction events
    bool wantMetrics = true;   //!< "metrics": per-cell metric registries
    bool timing = true;        //!< "timing": unused, set by perfbench/ledger.cc
    bool forceGeneric = false; //!< "generic": run the oracle walk
};

/** Serializes @p req as one request line (no trailing newline). */
std::string encodeRequest(const ServeRequest &req);

/**
 * Parses one request line. Throws std::runtime_error on malformed JSON,
 * a missing/unknown "op", or a missing required field.
 */
ServeRequest decodeRequest(const std::string &line);

/** A complete {"ok":false,"error":...} reply line. */
std::string errorReply(const std::string &message);

/**
 * An admission-refused reply: {"ok":false,"busy":true,
 * "retry_after_ms":N,"error":...}. The typed overload-shedding signal.
 */
std::string busyReply(const std::string &message, uint64_t retry_after_ms);

/** A drain-refused reply: {"ok":false,"draining":true,"error":...}. */
std::string drainingReply(const std::string &message);

/**
 * Writes @p f as a JSON object into @p w (attempt_ns as decimal
 * strings). Paired with readFailure for an exact round trip.
 */
void writeFailure(JsonWriter &w, const CellFailure &f);

/** Parses a writeFailure() object. Throws std::runtime_error. */
CellFailure readFailure(const JsonValue &v);

} // namespace ev8

#endif // EV8_SERVE_PROTOCOL_HH
