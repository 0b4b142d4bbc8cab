#include "mcn/storage/buffer_pool.h"

#include "mcn/common/macros.h"

namespace mcn::storage {

BufferPool::PageGuard& BufferPool::PageGuard::operator=(
    PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    o.pool_ = nullptr;
    o.frame_ = 0;
  }
  return *this;
}

const std::byte* BufferPool::PageGuard::data() const {
  MCN_DCHECK(pool_ != nullptr);
  return pool_->frames_[frame_].data;
}

PageId BufferPool::PageGuard::id() const {
  MCN_DCHECK(pool_ != nullptr);
  return pool_->frames_[frame_].id;
}

void BufferPool::PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = 0;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity_frames)
    : disk_(disk), capacity_(capacity_frames) {
  MCN_CHECK(disk != nullptr);
  frames_.resize(capacity_frames);
  free_.reserve(capacity_frames);
  for (size_t i = 0; i < capacity_frames; ++i) {
    free_.push_back(static_cast<uint32_t>(i));
  }
}

BufferPool::~BufferPool() {
  // All guards must be released before the pool dies.
  for (const Frame& frame : frames_) {
    MCN_CHECK(frame.pins == 0);
  }
}

uint32_t BufferPool::AllocFrame() {
  if (!free_.empty()) {
    uint32_t fi = free_.back();
    free_.pop_back();
    return fi;
  }
  uint32_t fi = static_cast<uint32_t>(frames_.size());
  frames_.emplace_back();
  return fi;
}

void BufferPool::LruPushBack(uint32_t fi) {
  Frame& frame = frames_[fi];
  MCN_DCHECK(!frame.in_lru);
  frame.lru_prev = lru_tail_;
  frame.lru_next = kNullFrame;
  if (lru_tail_ != kNullFrame) {
    frames_[lru_tail_].lru_next = fi;
  } else {
    lru_head_ = fi;
  }
  lru_tail_ = fi;
  frame.in_lru = true;
}

void BufferPool::LruRemove(uint32_t fi) {
  Frame& frame = frames_[fi];
  MCN_DCHECK(frame.in_lru);
  if (frame.lru_prev != kNullFrame) {
    frames_[frame.lru_prev].lru_next = frame.lru_next;
  } else {
    lru_head_ = frame.lru_next;
  }
  if (frame.lru_next != kNullFrame) {
    frames_[frame.lru_next].lru_prev = frame.lru_prev;
  } else {
    lru_tail_ = frame.lru_prev;
  }
  frame.in_lru = false;
}

void BufferPool::EvictLruFront() {
  uint32_t victim = lru_head_;
  MCN_DCHECK(victim != kNullFrame);
  LruRemove(victim);
  table_.Erase(frames_[victim].id.Pack());
  free_.push_back(victim);
}

Result<BufferPool::PageGuard> BufferPool::Fetch(PageId id) {
  uint32_t fi = table_.Find(id.Pack());
  if (fi != FlatU64Map::kNoValue) {
    Frame& frame = frames_[fi];
    if (frame.in_lru) LruRemove(fi);
    ++frame.pins;
    ++stats_.hits;
    return PageGuard(this, fi);
  }

  fi = AllocFrame();
  Frame& frame = frames_[fi];
  frame.id = id;
  frame.pins = 1;
  Result<const std::byte*> read = disk_->ReadPageRef(id);
  if (!read.ok()) {
    frame.pins = 0;
    free_.push_back(fi);
    return read.status();
  }
  frame.data = read.value();
  ++stats_.misses;
  table_.Insert(id.Pack(), fi);
  TrimToCapacity();
  return PageGuard(this, fi);
}

void BufferPool::Unpin(uint32_t fi) {
  Frame& frame = frames_[fi];
  MCN_DCHECK(frame.pins > 0);
  --frame.pins;
  if (frame.pins == 0) {
    LruPushBack(fi);
    TrimToCapacity();
  }
}

void BufferPool::TrimToCapacity() {
  while (table_.size() > capacity_ && lru_head_ != kNullFrame) {
    ++stats_.evictions;
    EvictLruFront();
  }
}

void BufferPool::SetCapacity(size_t capacity_frames) {
  capacity_ = capacity_frames;
  TrimToCapacity();
}

void BufferPool::Clear() {
  while (lru_head_ != kNullFrame) {
    EvictLruFront();
  }
}

}  // namespace mcn::storage
