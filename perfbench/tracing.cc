#include "tracing.h"

#include <chrono>

namespace perfbench {
namespace {

// Raw spans kept per client thread per collected window; the online
// totals cover every span regardless.
constexpr size_t kKeptSpansPerThread = 4096;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Context decorator: each Get is a `get` span, each Put/Insert a `put`.
class TracedContext final : public core::TxnContext {
 public:
  explicit TracedContext(core::TxnContext* inner) : inner_(inner) {}
  Status Get(const RecordKey& key, std::string* value) override {
    SpanRecorder::Get().Begin(kGet);
    Status s = inner_->Get(key, value);
    SpanRecorder::Get().End();
    return s;
  }
  Status Put(const RecordKey& key, std::string value) override {
    SpanRecorder::Get().Begin(kPut);
    Status s = inner_->Put(key, std::move(value));
    SpanRecorder::Get().End();
    return s;
  }
  Status Insert(const RecordKey& key, std::string value) override {
    SpanRecorder::Get().Begin(kPut);
    Status s = inner_->Insert(key, std::move(value));
    SpanRecorder::Get().End();
    return s;
  }

 private:
  core::TxnContext* inner_;
};

class TracedClient final : public workloads::WorkloadClient {
 public:
  explicit TracedClient(std::unique_ptr<workloads::WorkloadClient> inner)
      : inner_(std::move(inner)) {}

  workloads::WorkloadTxn Next() override {
    SpanRecorder& spans = SpanRecorder::Get();
    spans.BeginTxn();  // closed by TracedSystem::Execute
    spans.Begin(kNext);
    workloads::WorkloadTxn txn = inner_->Next();
    spans.End();
    txn.logic = [logic = std::move(txn.logic)](core::TxnContext& ctx) {
      SpanRecorder::Get().Begin(kLogic);
      TracedContext traced(&ctx);
      Status s = logic(traced);
      SpanRecorder::Get().End();
      return s;
    };
    return txn;
  }

 private:
  std::unique_ptr<workloads::WorkloadClient> inner_;
};

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kTxn:
      return "txn";
    case kNext:
      return "next";
    case kExecute:
      return "execute";
    case kLogic:
      return "logic";
    case kGet:
      return "get";
    case kPut:
      return "put";
    case kNumSpans:
      break;
  }
  return "unknown";
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadState& SpanRecorder::State() {
  // A state is valid until the next Collect(), which bumps the generation.
  thread_local ThreadState* state = nullptr;
  thread_local uint64_t state_generation = 0;
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (state == nullptr || state_generation != generation) {
    std::lock_guard<std::mutex> guard(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    state = threads_.back().get();
    state->thread_index = ++thread_counter_;
    state->kept.reserve(kKeptSpansPerThread);
    state_generation = generation;
  }
  return *state;
}

void SpanRecorder::BeginTxn() {
  ThreadState& t = State();
  ++t.txn;
  Begin(kTxn);
}

void SpanRecorder::Begin(SpanName name) {
  ThreadState& t = State();
  t.stack.push_back(Open{name, t.next_id++, NowNs(), 0});
}

void SpanRecorder::End() {
  const int64_t now = NowNs();
  ThreadState& t = State();
  const Open open = t.stack.back();
  t.stack.pop_back();
  const int64_t duration = now - open.start_ns;
  SpanTotals& totals = t.totals[open.name];
  totals.count++;
  totals.total_ns += static_cast<double>(duration);
  totals.self_ns += static_cast<double>(duration - open.child_ns);
  uint32_t parent = 0;
  if (!t.stack.empty()) {
    t.stack.back().child_ns += duration;
    parent = t.stack.back().id;
  }
  if (t.kept.size() < kKeptSpansPerThread) {
    const uint64_t txn = (static_cast<uint64_t>(t.thread_index) << 40) | t.txn;
    t.kept.push_back(
        Record{txn, open.id, parent, open.name, open.start_ns, now});
  }
}

std::array<SpanTotals, kNumSpans> SpanRecorder::Collect(
    const std::string& system) {
  std::lock_guard<std::mutex> guard(mu_);
  std::array<SpanTotals, kNumSpans> sum{};
  for (const auto& t : threads_) {
    for (size_t i = 0; i < kNumSpans; ++i) {
      sum[i].count += t->totals[i].count;
      sum[i].total_ns += t->totals[i].total_ns;
      sum[i].self_ns += t->totals[i].self_ns;
    }
    for (const Record& r : t->kept) output_.emplace_back(system, r);
  }
  threads_.clear();
  generation_.fetch_add(1, std::memory_order_release);
  return sum;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [system, r] : output_) {
    std::fprintf(f,
                 "{\"system\":\"%s\",\"txn\":%llu,\"span\":%u,\"parent\":%u,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 system.c_str(), static_cast<unsigned long long>(r.txn), r.id,
                 r.parent, SpanNameString(r.name),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

std::unique_ptr<workloads::WorkloadClient> TracedWorkload::MakeClient(
    uint64_t index) {
  return std::make_unique<TracedClient>(inner_->MakeClient(index + offset_));
}

Status TracedSystem::Execute(core::ClientState& client,
                             const core::TxnProfile& profile,
                             const core::TxnLogic& logic,
                             core::TxnResult* result) {
  SpanRecorder& spans = SpanRecorder::Get();
  spans.Begin(kExecute);
  Status s = inner_->Execute(client, profile, logic, result);
  spans.End();  // execute
  spans.End();  // txn
  return s;
}

}  // namespace perfbench
