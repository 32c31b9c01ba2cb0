#include "relia/spool.hpp"

namespace dlc::relia {

MessageSpool::MessageSpool(SpoolConfig config) : config_(config) {}

void MessageSpool::append(ldms::StreamMessage msg) {
  const util::LockGuard lock(m_);
  ++appended_;
  const std::size_t bytes = msg.payload.size();
  // A message alone larger than the byte bound can never be retained.
  if (config_.max_msgs == 0 ||
      (config_.max_bytes > 0 && bytes > config_.max_bytes)) {
    ++evicted_;
    return;
  }
  while (ring_.size() >= config_.max_msgs ||
         (config_.max_bytes > 0 && ring_bytes_ + bytes > config_.max_bytes)) {
    ring_bytes_ -= ring_.front().payload.size();
    ring_.pop_front();
    ++evicted_;
  }
  ring_bytes_ += bytes;
  ring_.push_back(std::move(msg));
}

std::optional<ldms::StreamMessage> MessageSpool::pop_front() {
  const util::LockGuard lock(m_);
  if (ring_.empty()) return std::nullopt;
  ldms::StreamMessage msg = std::move(ring_.front());
  ring_.pop_front();
  ring_bytes_ -= msg.payload.size();
  return msg;
}

void MessageSpool::clear() {
  const util::LockGuard lock(m_);
  evicted_ += ring_.size();
  ring_.clear();
  ring_bytes_ = 0;
}

}  // namespace dlc::relia
