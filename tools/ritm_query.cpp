// ritm_query: query a running ritm_serve (or any envelope RA endpoint)
// over TCP — single status queries (optionally pipelined) and batches —
// and print the decoded verdicts.
//
//   ./ritm_query --port 4717 --serial 00000007 --serial 0000002a
//   ./ritm_query --port 4717 --batch 256
//   ./ritm_query --port 4717 --serial 00000007 --trust <hex-from-serve>
//
// With --trust every status, single or batched, is judged by the
// validating client (signed root, freshness, proof); without it the tool
// only decodes and reports presence/absence, labelled unverified. Calls
// go through svc::ResilientTransport, except with --pipeline > 1, which
// submits on the svc::TcpClient directly and retries nothing.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "dict/messages.hpp"
#include "ra/service.hpp"
#include "svc/resilient.hpp"
#include "svc/tcp.hpp"

using namespace ritm;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ritm_query [--host H] [--port N] [--ca ID] "
               "[--serial HEX]... [--batch N] [--trust HEX]\n"
               "                  [--timeout-ms N] [--retries N] "
               "[--pipeline N]\n"
               "  --host H        server address (default 127.0.0.1)\n"
               "  --port N        server port (default 4717)\n"
               "  --ca ID         CA to query (default CA-1)\n"
               "  --serial HEX    serial number to query (repeatable)\n"
               "  --batch N       also time one batched envelope of N "
               "serials\n"
               "  --trust HEX     CA public key; verify roots and proofs\n"
               "  --timeout-ms N  per-call deadline incl. connect "
               "(default 10000)\n"
               "  --retries N     retry retryable failures up to N attempts "
               "with backoff (default 1 = no retry)\n"
               "  --pipeline N    keep up to N requests in flight on the "
               "connection (default 1 = call-and-wait;\n"
               "                  responses complete out of order; --retries "
               "applies only to non-pipelined calls)\n");
  std::exit(2);
}

const char* describe(const dict::RevocationStatus& status) {
  return status.proof.type == dict::Proof::Type::presence
             ? "REVOKED (presence proof)"
             : "valid (absence proof)";
}

/// The client's verdict on one served status for (ca, serial), judged as of
/// the status's own signed-root time.
client::Verdict judge(const client::RitmClient& client, const cert::CaId& ca,
                      const cert::SerialNumber& serial, ByteSpan status) {
  const auto view = dict::StatusView::parse(status);
  const UnixSeconds now = view ? view->signed_root.timestamp : 0;
  cert::Certificate leaf;
  leaf.serial = serial;
  leaf.issuer = ca;
  leaf.not_after = now + 1'000'000;
  return client.validate_status_bytes(status, leaf, now);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 4717;
  cert::CaId ca = "CA-1";
  std::vector<cert::SerialNumber> serials;
  std::size_t batch = 0;
  std::string trust_hex;
  int timeout_ms = 10'000;
  std::uint32_t retries = 1;
  std::size_t pipeline = 1;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) {
      host = next();
    } else if (!std::strcmp(argv[i], "--port")) {
      port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--ca")) {
      ca = next();
    } else if (!std::strcmp(argv[i], "--serial")) {
      serials.push_back({from_hex(next())});
    } else if (!std::strcmp(argv[i], "--batch")) {
      batch = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--trust")) {
      trust_hex = next();
    } else if (!std::strcmp(argv[i], "--timeout-ms")) {
      timeout_ms = static_cast<int>(std::strtoul(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--retries")) {
      retries = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--pipeline")) {
      pipeline = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
      if (pipeline == 0) pipeline = 1;
    } else {
      usage();
    }
  }
  if (serials.empty() && batch == 0) {
    serials.push_back(cert::SerialNumber::from_uint(7, 4));
    serials.push_back(cert::SerialNumber::from_uint(42, 4));
  }

  svc::TcpClient tcp(host, port,
                     {.timeout_ms = timeout_ms, .max_inflight = pipeline});
  svc::RetryPolicy retry;
  retry.max_attempts = retries == 0 ? 1 : retries;
  retry.deadline_ms = std::uint64_t(timeout_ms) * retry.max_attempts;
  svc::ResilientTransport rpc(&tcp, retry);

  // Optional validation context.
  cert::TrustStore roots;
  if (!trust_hex.empty()) {
    const Bytes key_bytes = from_hex(trust_hex);
    crypto::PublicKey key{};
    if (key_bytes.size() != key.size()) {
      std::fprintf(stderr, "ritm_query: --trust must be %zu hex bytes\n",
                   key.size());
      return 2;
    }
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    roots.add(ca, key);
  }
  const client::RitmClient client({.delta = 10, .expect_ritm = true,
                                   .require_server_confirmation = false},
                                  roots);

  // Pipelined mode: stream every serial query with up to `pipeline` in
  // flight (submit blocks once the window is full), then collect by
  // request_id — responses may complete out of order on the wire.
  std::vector<std::uint64_t> pipeline_ids(serials.size(), 0);
  if (pipeline > 1) {
    for (std::size_t i = 0; i < serials.size(); ++i) {
      svc::Request req;
      req.method = svc::Method::status_query;
      req.body = ra::encode_status_query(ca, serials[i]);
      const auto s = tcp.submit(req, &pipeline_ids[i]);
      if (s != svc::Status::ok) {
        std::fprintf(stderr, "%s: submit failed (%s)\n",
                     serials[i].to_hex().c_str(), svc::to_string(s));
        return 1;
      }
    }
  }

  int exit_code = 0;
  for (std::size_t si = 0; si < serials.size(); ++si) {
    const auto& serial = serials[si];
    svc::CallResult r;
    if (pipeline > 1) {
      r = tcp.collect(pipeline_ids[si]);
    } else {
      svc::Request req;
      req.method = svc::Method::status_query;
      req.body = ra::encode_status_query(ca, serial);
      r = rpc.call(req);
    }
    if (r.status != svc::Status::ok) {
      std::fprintf(stderr, "%s: transport error (%s)\n",
                   serial.to_hex().c_str(), svc::to_string(r.status));
      return 1;
    }
    if (r.response.status != svc::Status::ok) {
      std::printf("%-16s -> %s\n", serial.to_hex().c_str(),
                  svc::to_string(r.response.status));
      exit_code = 1;
      continue;
    }
    const auto status =
        dict::RevocationStatus::decode(ByteSpan(r.response.body));
    if (!status) {
      std::fprintf(stderr, "%s: undecodable status payload\n",
                   serial.to_hex().c_str());
      return 1;
    }
    std::printf("%-16s -> %s  [%zu B, root n=%llu, %.2f ms]\n",
                serial.to_hex().c_str(), describe(*status),
                r.response.body.size(),
                (unsigned long long)status->signed_root.n, r.latency_ms);
    if (!trust_hex.empty()) {
      std::printf("%-16s    client verdict: %s\n", "",
                  client::to_string(judge(client, ca, serial,
                                          ByteSpan(r.response.body))));
    }
  }

  if (batch > 0) {
    std::vector<cert::SerialNumber> probe(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      probe[i] = cert::SerialNumber::from_uint(i * 3 + 1, 4);
    }
    svc::Request req;
    req.method = svc::Method::status_batch;
    req.body = ra::encode_status_batch(ca, probe);
    svc::CallResult r;
    if (pipeline > 1) {
      // Keep `pipeline` copies of the batch in flight and report the last
      // to land; the aggregate rate covers the whole pipelined window.
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::uint64_t> ids(pipeline, 0);
      for (std::size_t i = 0; i < pipeline; ++i) {
        if (tcp.submit(req, &ids[i]) != svc::Status::ok) {
          std::fprintf(stderr, "batch: submit failed\n");
          return 1;
        }
      }
      for (std::size_t i = 0; i < pipeline; ++i) r = tcp.collect(ids[i]);
      r.latency_ms = std::chrono::duration_cast<
                         std::chrono::duration<double, std::milli>>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     double(pipeline);
    } else {
      r = rpc.call(req);
    }
    if (!r.ok()) {
      std::fprintf(stderr, "batch: failed (%s)\n",
                   svc::to_string(r.status == svc::Status::ok
                                      ? r.response.status
                                      : r.status));
      return 1;
    }
    const auto statuses =
        ra::decode_status_batch_reply(ByteSpan(r.response.body));
    if (!statuses || statuses->size() != batch) {
      std::fprintf(stderr, "batch: malformed reply\n");
      return 1;
    }
    // With --trust, a count per client verdict; without, presence and
    // absence proofs as decoded, and statuses that do not decode.
    std::map<std::string, std::size_t> counts;
    for (std::size_t i = 0; i < batch; ++i) {
      const ByteSpan bytes((*statuses)[i]);
      if (!trust_hex.empty()) {
        ++counts[client::to_string(judge(client, ca, probe[i], bytes))];
        continue;
      }
      const auto status = dict::StatusView::parse(bytes);
      ++counts[!status ? "undecodable"
               : status->proof.type == dict::Proof::Type::presence
                   ? "presence"
                   : "absence"];
    }
    std::string summary = trust_hex.empty() ? "unverified:" : "verdicts:";
    for (const auto& [what, n] : counts) {
      summary += " " + what + " " + std::to_string(n);
    }
    std::printf("batch x%zu       -> %s  "
                "[%llu B total, %.2f ms, %.0f serials/s]\n",
                batch, summary.c_str(),
                (unsigned long long)r.bytes_received, r.latency_ms,
                double(batch) / (r.latency_ms / 1000.0));
  }
  return exit_code;
}
