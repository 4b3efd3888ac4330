#include "runtime/compute_task.h"

namespace flick::runtime {

HandleResult BroadcastEof(EmitContext& emit) {
  for (size_t out = 0; out < emit.output_count(); ++out) {
    if (!emit.CanEmit(out)) {
      return HandleResult::kBlocked;
    }
  }
  for (size_t out = 0; out < emit.output_count(); ++out) {
    MsgRef eof = emit.NewMsg();
    eof->kind = Msg::Kind::kEof;
    (void)emit.Emit(out, std::move(eof));
  }
  return HandleResult::kConsumed;
}

ComputeTask::ComputeTask(std::string name, Handler handler, MsgPool* msgs)
    : Task(std::move(name)), handler_(std::move(handler)), msgs_(msgs) {}

TaskRunResult ComputeTask::Run(TaskContext& ctx) {
  EmitContext emit(&outputs_, msgs_);

  // First, retry a message that was blocked on a full output.
  if (stalled_msg_) {
    const HandleResult r = handler_(*stalled_msg_, stalled_input_, emit);
    if (r == HandleResult::kBlocked) {
      return TaskRunResult::kIdle;  // output consumer will wake us
    }
    stalled_msg_ = MsgRef();
    messages_handled_.fetch_add(1, std::memory_order_relaxed);
    ctx.ItemDone();
  }

  const size_t n = inputs_.size();
  size_t empty_streak = 0;
  while (empty_streak < n) {
    Channel* in = inputs_[next_input_];
    MsgRef msg = in->TryPop();
    if (!msg) {
      ++empty_streak;
      next_input_ = (next_input_ + 1) % n;
      continue;
    }
    empty_streak = 0;
    const size_t input_index = next_input_;
    const HandleResult r = handler_(*msg, input_index, emit);
    if (r == HandleResult::kBlocked) {
      stalled_msg_ = std::move(msg);
      stalled_input_ = input_index;
      return TaskRunResult::kIdle;  // woken when the output drains
    }
    messages_handled_.fetch_add(1, std::memory_order_relaxed);
    ctx.ItemDone();
    if (ctx.ShouldYield()) {
      return TaskRunResult::kMoreWork;
    }
  }
  return TaskRunResult::kIdle;
}

MergeTask::MergeTask(std::string name, OrderFn order, CombineFn combine)
    : Task(std::move(name)), order_(std::move(order)), combine_(std::move(combine)) {}

bool MergeTask::Step(bool* made_progress) {
  // Flush a previously blocked emission first.
  if (out_pending_) {
    if (!out_->TryPush(std::move(out_pending_))) {
      return false;
    }
    *made_progress = true;
  }

  // Refill pending slots.
  if (!left_pending_ && !left_eof_) {
    left_pending_ = left_->TryPop();
    if (left_pending_ && left_pending_->kind == Msg::Kind::kEof) {
      left_eof_ = true;
      left_pending_ = MsgRef();
    }
  }
  if (!right_pending_ && !right_eof_) {
    right_pending_ = right_->TryPop();
    if (right_pending_ && right_pending_->kind == Msg::Kind::kEof) {
      right_eof_ = true;
      right_pending_ = MsgRef();
    }
  }

  // foldt semantics: elements are combined/ordered across the two streams.
  MsgRef next;
  if (left_pending_ && right_pending_) {
    const int cmp = order_(*left_pending_, *right_pending_);
    if (cmp == 0) {
      combine_(*left_pending_, *right_pending_);
      next = std::move(left_pending_);
      right_pending_ = MsgRef();
    } else if (cmp < 0) {
      next = std::move(left_pending_);
    } else {
      next = std::move(right_pending_);
    }
  } else if (left_pending_ && right_eof_) {
    next = std::move(left_pending_);
  } else if (right_pending_ && left_eof_) {
    next = std::move(right_pending_);
  } else if (left_eof_ && right_eof_) {
    // Both streams done: flush the held element, then forward one EOF
    // downstream (a one-off heap control message; MergeTask has no pool).
    if (hold_) {
      if (!out_->TryPush(std::move(hold_))) {
        return false;
      }
      *made_progress = true;
    }
    if (!eof_forwarded_) {
      if (!out_pending_) {
        out_pending_ = MsgRef(new Msg(), nullptr);
        out_pending_->kind = Msg::Kind::kEof;
      }
      if (out_->TryPush(std::move(out_pending_))) {
        eof_forwarded_ = true;
        *made_progress = true;
      }
    }
    return false;
  } else {
    return false;  // waiting on an input
  }

  // Run-length combining: hold the most recent output element back; equal-
  // keyed successors (within or across streams — mapper runs are sorted)
  // fold into it, and it is only emitted once a greater key appears. This is
  // what makes the tree a combiner rather than a plain merge.
  if (!hold_) {
    hold_ = std::move(next);
    *made_progress = true;
    return true;
  }
  if (order_(*hold_, *next) == 0) {
    combine_(*hold_, *next);
    *made_progress = true;
    return true;
  }
  if (!out_->TryPush(std::move(hold_))) {
    // Output full: keep both; retry after the consumer drains. `next` moves
    // back to its pending slot conceptually — simplest is the out_pending_
    // buffer for hold_ and re-hold next.
    out_pending_ = std::move(hold_);
    hold_ = std::move(next);
    return false;
  }
  hold_ = std::move(next);
  *made_progress = true;
  return true;
}

TaskRunResult MergeTask::Run(TaskContext& ctx) {
  while (true) {
    bool made_progress = false;
    const bool more = Step(&made_progress);
    if (made_progress) {
      ctx.ItemDone();
    }
    if (!more) {
      return TaskRunResult::kIdle;  // channel notifications drive us
    }
    if (ctx.ShouldYield()) {
      return TaskRunResult::kMoreWork;
    }
  }
}

}  // namespace flick::runtime
