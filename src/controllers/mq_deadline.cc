#include "controllers/mq_deadline.hh"

namespace iocost::controllers {

bool
MqDeadline::deviceHasRoom() const
{
    auto *self = const_cast<MqDeadline *>(this);
    const blk::BlockDevice &dev = self->layer().device();
    return dev.inFlight() < dev.queueDepth() &&
           self->layer().dispatchQueueDepth() == 0;
}

void
MqDeadline::onSubmit(blk::BioPtr bio)
{
    if (bio->op == blk::Op::Read)
        reads_.push_back(std::move(bio));
    else
        writes_.push_back(std::move(bio));
    pump();
}

void
MqDeadline::onComplete(const blk::Bio &bio,
                       const blk::CompletionInfo &info)
{
    (void)bio;
    (void)info;
    pump();
}

void
MqDeadline::pump()
{
    const sim::Time now = layer().sim().now();
    while ((!reads_.empty() || !writes_.empty()) && deviceHasRoom()) {
        const bool write_expired =
            !writes_.empty() &&
            now - writes_.front()->submitTime >= cfg_.writeExpire;
        const bool read_expired =
            !reads_.empty() &&
            now - reads_.front()->submitTime >= cfg_.readExpire;

        blk::Op dir;
        if (write_expired) {
            // Expired writes take priority to prevent starvation.
            dir = blk::Op::Write;
        } else if (read_expired) {
            dir = blk::Op::Read;
        } else if (reads_.empty()) {
            dir = blk::Op::Write;
        } else if (writes_.empty()) {
            dir = blk::Op::Read;
        } else if (batchDir_ == blk::Op::Read &&
                   batchCount_ >= cfg_.fifoBatch) {
            // Both directions pending: prefer reads, but yield to
            // writes after a full read batch.
            dir = blk::Op::Write;
        } else {
            dir = blk::Op::Read;
        }

        if (dir == batchDir_) {
            ++batchCount_;
        } else {
            // Direction flips are the scheduler's only interesting
            // decision; emitting them (not every dispatch) keeps the
            // record volume proportional to batches.
            stat::Telemetry &tel = layer().telemetry();
            if (tel.enabled()) {
                tel.emit(now, "mq-deadline", stat::kNoCgroup,
                         "batch_dir",
                         dir == blk::Op::Write ? 1.0 : 0.0);
            }
            batchDir_ = dir;
            batchCount_ = 1;
        }

        auto &queue = dir == blk::Op::Read ? reads_ : writes_;
        blk::BioPtr bio = std::move(queue.front());
        queue.pop_front();
        layer().dispatch(std::move(bio));
    }
}

} // namespace iocost::controllers
