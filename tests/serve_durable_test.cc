// End-to-end tests of serving over a DurableCatalog: acked publishes
// survive a full server restart from the same data directory, a
// reconnecting writer's probe (Publish with the probe flag) is answered
// from the recovered applied-publish table, and the recovered snapshot
// id is bit-identical to the one the original server acked. The
// in-memory catalog (no data directory) answers probes and retries the
// same way. Raw-socket
// probes exercise the wire path the client's ReconnectAndRestore uses.
// Labeled `serve` through the CMake test glob.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "data/dataset.h"
#include "data/recovery.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace toprr {
namespace serve {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/toprr_serve_durable_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

Dataset MakeBootstrap(size_t n, size_t d) {
  Dataset data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      data.At(i, j) = 0.02 * static_cast<double>(i * d + j + 1);
    }
  }
  return data;
}

// An empty `dir` opens the in-memory catalog.
std::shared_ptr<DurableCatalog> OpenDurable(const std::string& dir,
                                            const Dataset& bootstrap,
                                            uint64_t checkpoint_every = 0) {
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kOff;  // tests exercise logic, not disks
  options.checkpoint_every = checkpoint_every;
  std::string error;
  std::shared_ptr<DurableCatalog> durable =
      DurableCatalog::Open(options, &bootstrap, &error);
  EXPECT_NE(durable, nullptr) << error;
  return durable;
}

std::unique_ptr<ToprrServer> StartDurableServer(
    std::shared_ptr<DurableCatalog> durable) {
  ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  auto server = std::make_unique<ToprrServer>(std::move(durable), config);
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  return server;
}

// A hand-rolled writer connection: Hello handshake plus raw mutation
// frames, so tests control the idempotency token (the library client
// draws a random one it does not expose).
class RawWriter {
 public:
  explicit RawWriter(int port) { Init(port); }

  // ASSERT_* needs a void function; the constructor delegates here.
  void Init(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    // Frames go out as prefix + payload writes; without NODELAY each
    // round trip waits out a delayed ACK.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    stream_ = std::make_unique<FdStream>(fd_);
    ASSERT_TRUE(WriteFrame(*stream_, EncodeHello()));
    std::string reply;
    ASSERT_EQ(ReadFrame(*stream_, &reply), FrameReadStatus::kOk);
    ServerHello hello;
    std::string error;
    ASSERT_TRUE(DecodeServerHello(reply, &hello, &error)) << error;
  }

  ~RawWriter() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::optional<MutationAck> RoundTrip(const std::string& request) {
    if (!WriteFrame(*stream_, request)) return std::nullopt;
    std::string reply;
    if (ReadFrame(*stream_, &reply) != FrameReadStatus::kOk) {
      return std::nullopt;
    }
    MutationAck ack;
    std::string error;
    if (!DecodeMutationAck(reply, &ack, &error)) return std::nullopt;
    return ack;
  }

 private:
  int fd_ = -1;
  std::unique_ptr<FdStream> stream_;
};

TEST(ServeDurableTest, ProbeEncodingRoundTrips) {
  const std::string frame = EncodePublish(77, 3, /*probe=*/true);
  uint64_t token = 0;
  uint64_t id = 0;
  bool probe = false;
  std::string error;
  ASSERT_TRUE(DecodePublish(frame, &token, &id, &probe, &error)) << error;
  EXPECT_EQ(token, 77u);
  EXPECT_EQ(id, 3u);
  EXPECT_TRUE(probe);

  // probe = false stays byte-identical to the pre-probe encoding.
  EXPECT_EQ(EncodePublish(77, 3, /*probe=*/false), EncodePublish(77, 3));
  ASSERT_TRUE(
      DecodePublish(EncodePublish(77, 3), &token, &id, &probe, &error));
  EXPECT_FALSE(probe);

  // Token 0 cannot probe: the encoder collapses to the empty body.
  EXPECT_EQ(EncodePublish(0, 0, /*probe=*/true), EncodePublish());

  // A probe flag without the idempotency flag is a typed decode error.
  std::string patched = EncodePublish(77, 3, /*probe=*/true);
  patched[6] = 0x02;  // flags word low byte: probe only
  EXPECT_FALSE(DecodePublish(patched, &token, &id, &probe, &error));
  EXPECT_NE(error.find("probe"), std::string::npos) << error;
}

TEST(ServeDurableTest, ProbeForUnknownPublishIsFreshNotApplied) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(60, 3);
  auto server = StartDurableServer(OpenDurable(dir, bootstrap));

  RawWriter writer(server->port());
  auto ack = writer.RoundTrip(EncodePublish(991, 7, /*probe=*/true));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, MutationStatus::kOk) << ack->message;
  EXPECT_FALSE(ack->already_applied);
  EXPECT_EQ(ack->idempotency_token, 991u);
  EXPECT_EQ(ack->publish_id, 7u);
  // A probe never publishes: the served snapshot is still the bootstrap.
  EXPECT_EQ(ack->snapshot_seq, 1u);
  EXPECT_EQ(ack->live_rows, 60u);
  server->Stop();
}

TEST(ServeDurableTest, AckedPublishSurvivesServerRestart) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(60, 3);
  constexpr uint64_t kToken = 424242;

  MutationAck original;
  {
    auto server = StartDurableServer(OpenDurable(dir, bootstrap));
    RawWriter writer(server->port());
    auto staged = writer.RoundTrip(
        EncodeStageInsert({Vec{0.91, 0.92, 0.93}, Vec{0.5, 0.6, 0.7}}));
    ASSERT_TRUE(staged.has_value());
    ASSERT_EQ(staged->status, MutationStatus::kOk) << staged->message;
    auto published = writer.RoundTrip(EncodePublish(kToken, 1));
    ASSERT_TRUE(published.has_value());
    ASSERT_EQ(published->status, MutationStatus::kOk) << published->message;
    EXPECT_FALSE(published->already_applied);
    EXPECT_EQ(published->live_rows, 62u);
    original = *published;
    server->Stop();
  }  // The DurableCatalog drops with the server: simulated process exit.

  std::shared_ptr<DurableCatalog> reopened = OpenDurable(dir, bootstrap);
  ASSERT_NE(reopened, nullptr);
  EXPECT_TRUE(reopened->recovery().recovered);
  // Bit-identical recovery: same snapshot id the original server acked.
  EXPECT_EQ(reopened->recovery().snapshot_id, original.snapshot_id);
  EXPECT_EQ(reopened->recovery().snapshot_seq, original.snapshot_seq);

  auto server = StartDurableServer(std::move(reopened));
  RawWriter writer(server->port());

  // The reconnect probe: answered from the recovered applied-publish
  // table without touching the (empty) staged delta.
  auto probe = writer.RoundTrip(EncodePublish(kToken, 1, /*probe=*/true));
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->status, MutationStatus::kOk) << probe->message;
  EXPECT_TRUE(probe->already_applied);
  EXPECT_EQ(probe->snapshot_id, original.snapshot_id);
  EXPECT_EQ(probe->snapshot_seq, original.snapshot_seq);
  EXPECT_EQ(probe->live_rows, original.live_rows);

  // A full retried Publish (lost-ack path) also dedupes after restart.
  auto retried = writer.RoundTrip(EncodePublish(kToken, 1));
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->status, MutationStatus::kOk) << retried->message;
  EXPECT_TRUE(retried->already_applied);
  EXPECT_EQ(retried->snapshot_seq, original.snapshot_seq);

  // The library client sees the recovered catalog too.
  ToprrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()))
      << client.last_error();
  auto info = client.CatalogInfo();
  ASSERT_TRUE(info.has_value()) << client.last_error();
  ASSERT_EQ(info->status, MutationStatus::kOk);
  EXPECT_EQ(info->live_rows, 62u);
  EXPECT_EQ(info->snapshot_id, original.snapshot_id);
  server->Stop();
}

TEST(ServeDurableTest, RestartedServerAcceptsNewPublishes) {
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(40, 3);
  uint64_t first_seq = 0;
  {
    auto server = StartDurableServer(OpenDurable(dir, bootstrap));
    RawWriter writer(server->port());
    auto staged = writer.RoundTrip(EncodeStageInsert({Vec{0.8, 0.8, 0.8}}));
    ASSERT_TRUE(staged.has_value());
    ASSERT_EQ(staged->status, MutationStatus::kOk);
    auto published = writer.RoundTrip(EncodePublish(7, 1));
    ASSERT_TRUE(published.has_value());
    ASSERT_EQ(published->status, MutationStatus::kOk);
    first_seq = published->snapshot_seq;
    server->Stop();
  }
  auto server = StartDurableServer(OpenDurable(dir, bootstrap));
  RawWriter writer(server->port());
  // A new publish id from the same writer token advances the catalog.
  auto staged = writer.RoundTrip(EncodeStageInsert({Vec{0.9, 0.9, 0.9}}));
  ASSERT_TRUE(staged.has_value());
  ASSERT_EQ(staged->status, MutationStatus::kOk);
  auto published = writer.RoundTrip(EncodePublish(7, 2));
  ASSERT_TRUE(published.has_value());
  ASSERT_EQ(published->status, MutationStatus::kOk) << published->message;
  EXPECT_FALSE(published->already_applied);
  EXPECT_GT(published->snapshot_seq, first_seq);
  EXPECT_EQ(published->live_rows, 42u);
  server->Stop();
}

TEST(ServeDurableTest, QuietTokenStaysDedupedAcrossRestartBehindABusyOne) {
  // Token B publishes once, then token A publishes 1100 times: more
  // publishes than the idempotency table's 1024 entries, but only two
  // tokens. A checkpoint lands every 64 publishes, so the restart loads
  // the table from a checkpoint; B's record must be in it.
  const std::string dir = MakeTempDir();
  const Dataset bootstrap = MakeBootstrap(60, 3);
  constexpr uint64_t kQuiet = 0xB;
  constexpr uint64_t kBusy = 0xA;
  constexpr uint64_t kBusyPublishes = 1100;
  const std::vector<Vec> quiet_delta = {Vec{0.91, 0.92, 0.93}};

  MutationAck quiet;
  {
    auto server = StartDurableServer(
        OpenDurable(dir, bootstrap, /*checkpoint_every=*/64));
    RawWriter writer(server->port());
    ASSERT_TRUE(writer.RoundTrip(EncodeStageInsert(quiet_delta)).has_value());
    auto published = writer.RoundTrip(EncodePublish(kQuiet, 1));
    ASSERT_TRUE(published.has_value());
    ASSERT_EQ(published->status, MutationStatus::kOk) << published->message;
    quiet = *published;
    for (uint64_t i = 1; i <= kBusyPublishes; ++i) {
      auto staged = writer.RoundTrip(EncodeStageInsert(
          {Vec{0.5, 0.5, 0.001 * static_cast<double>(i % 500)}}));
      ASSERT_TRUE(staged.has_value());
      ASSERT_EQ(staged->status, MutationStatus::kOk) << staged->message;
      auto busy = writer.RoundTrip(EncodePublish(kBusy, i));
      ASSERT_TRUE(busy.has_value());
      ASSERT_EQ(busy->status, MutationStatus::kOk) << busy->message;
      ASSERT_FALSE(busy->already_applied);
    }
    server->Stop();
  }

  auto server =
      StartDurableServer(OpenDurable(dir, bootstrap, /*checkpoint_every=*/64));
  RawWriter writer(server->port());
  auto before = writer.RoundTrip(EncodeCatalogInfo());
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->live_rows, 60u + 1 + kBusyPublishes);

  auto probe = writer.RoundTrip(EncodePublish(kQuiet, 1, /*probe=*/true));
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->status, MutationStatus::kOk) << probe->message;
  EXPECT_TRUE(probe->already_applied);
  EXPECT_EQ(probe->snapshot_id, quiet.snapshot_id);
  EXPECT_EQ(probe->snapshot_seq, quiet.snapshot_seq);

  // The lost-ack retry: the writer re-stages B's delta and publishes
  // the same (token, id) again. It must not apply twice.
  ASSERT_TRUE(writer.RoundTrip(EncodeStageInsert(quiet_delta)).has_value());
  auto retried = writer.RoundTrip(EncodePublish(kQuiet, 1));
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->status, MutationStatus::kOk) << retried->message;
  EXPECT_TRUE(retried->already_applied);
  EXPECT_EQ(retried->snapshot_id, quiet.snapshot_id);
  EXPECT_EQ(retried->staged_inserts, 0u);

  auto after = writer.RoundTrip(EncodeCatalogInfo());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->snapshot_id, before->snapshot_id);
  EXPECT_EQ(after->snapshot_seq, before->snapshot_seq);
  server->Stop();
}

TEST(ServeDurableTest, InMemoryCatalogAnswersProbesAndRetries) {
  const Dataset bootstrap = MakeBootstrap(60, 3);
  constexpr uint64_t kToken = 5150;
  auto server = StartDurableServer(OpenDurable("", bootstrap));
  RawWriter writer(server->port());

  auto unknown = writer.RoundTrip(EncodePublish(kToken, 1, /*probe=*/true));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->status, MutationStatus::kOk) << unknown->message;
  EXPECT_FALSE(unknown->already_applied);
  EXPECT_EQ(unknown->snapshot_seq, 1u);

  ASSERT_TRUE(
      writer.RoundTrip(EncodeStageInsert({Vec{0.9, 0.9, 0.9}})).has_value());
  auto published = writer.RoundTrip(EncodePublish(kToken, 1));
  ASSERT_TRUE(published.has_value());
  ASSERT_EQ(published->status, MutationStatus::kOk) << published->message;
  EXPECT_FALSE(published->already_applied);
  EXPECT_EQ(published->live_rows, 61u);

  auto probe = writer.RoundTrip(EncodePublish(kToken, 1, /*probe=*/true));
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->already_applied);
  EXPECT_EQ(probe->snapshot_id, published->snapshot_id);

  ASSERT_TRUE(
      writer.RoundTrip(EncodeStageInsert({Vec{0.9, 0.9, 0.9}})).has_value());
  auto retried = writer.RoundTrip(EncodePublish(kToken, 1));
  ASSERT_TRUE(retried.has_value());
  EXPECT_TRUE(retried->already_applied);
  EXPECT_EQ(retried->live_rows, 61u);
  EXPECT_EQ(retried->staged_inserts, 0u);

  // No durability one-liner: nothing is logged in memory.
  auto info = writer.RoundTrip(EncodeCatalogInfo());
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->message.empty()) << info->message;
  EXPECT_EQ(server->stats().Snapshot().publishes_deduped, 1u);
  EXPECT_EQ(server->stats().Snapshot().wal_appends, 0u);
  server->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace toprr
