// Ordered seq -> line emission for concurrent request pipelines.
//
// Requests are numbered at admission and complete out of order (pool
// workers, router dispatchers, requeues).  OrderedEmitter buffers the
// finished lines and a dedicated thread writes them strictly in seq
// order, one line and one flush each: clients block on replies, so they
// are never batched.  After each write an optional sink receives the
// item's metadata, the line and the nanoseconds the write took, so the
// caller can account for the write without ever touching its bytes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "common/timing.hpp"

namespace fmm {

struct NoMeta {};

template <typename Meta = NoMeta>
class OrderedEmitter {
 public:
  using Sink = std::function<void(Meta& meta, const std::string& line,
                                  std::int64_t write_ns)>;

  explicit OrderedEmitter(std::ostream& out, Sink sink = nullptr)
      : out_(out), sink_(std::move(sink)), writer_([this] { run(); }) {}

  OrderedEmitter(const OrderedEmitter&) = delete;
  OrderedEmitter& operator=(const OrderedEmitter&) = delete;

  /// Without a prior finish() (an exception unwound the producer), the
  /// writer drains whatever is contiguous and stops.
  ~OrderedEmitter() {
    if (writer_.joinable()) {
      finish(0);
    }
  }

  /// Hands over the line for `seq`; each seq is pushed exactly once.
  void push(std::size_t seq, std::string line, Meta meta = {}) {
    {
      const std::scoped_lock lock(mutex_);
      ready_.emplace(seq, Item{std::move(line), std::move(meta)});
    }
    cv_.notify_all();
  }

  /// Declares that seqs [0, total) are all pushed (or will be), waits
  /// until every one of them is written, and stops the writer.
  void finish(std::size_t total) {
    {
      const std::scoped_lock lock(mutex_);
      done_ = true;
      total_ = total;
    }
    cv_.notify_all();
    writer_.join();
  }

 private:
  struct Item {
    std::string line;
    Meta meta;
  };

  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] {
        return ready_.count(next_) > 0 || (done_ && next_ >= total_);
      });
      const auto it = ready_.find(next_);
      if (it == ready_.end()) {
        return;
      }
      Item item = std::move(it->second);
      ready_.erase(it);
      ++next_;
      lock.unlock();
      const Stopwatch write_timer;
      out_ << item.line << '\n';
      out_.flush();
      if (sink_) {
        sink_(item.meta, item.line, write_timer.nanoseconds());
      }
      lock.lock();
    }
  }

  std::ostream& out_;
  Sink sink_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::size_t, Item> ready_;
  std::size_t next_ = 0;
  std::size_t total_ = 0;
  bool done_ = false;
  std::thread writer_;  // last: starts after every other member exists
};

}  // namespace fmm
