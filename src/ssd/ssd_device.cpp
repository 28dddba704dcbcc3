#include "ssd/ssd_device.h"

#include <cstdint>
#include <memory>
#include <utility>

#include "common/units.h"

namespace uc::ssd {

SsdDevice::SsdDevice(sim::Simulator& sim, const SsdConfig& cfg)
    : sim_(sim),
      cfg_(cfg),
      rng_(cfg.seed),
      firmware_read_(cfg.firmware_read),
      firmware_write_(cfg.firmware_write),
      host_ns_per_byte_(units::ns_per_byte_from_mbps(cfg.host_link_mbps)) {
  UC_ASSERT(cfg_.validate().is_ok(), "invalid SSD configuration");
  info_.name = cfg_.name;
  info_.capacity_bytes = cfg_.ftl.user_capacity_bytes;
  info_.logical_block_bytes = kLogicalPageBytes;
  ftl_ = std::make_unique<ftl::Ftl>(sim_, cfg_.ftl, rng_.fork());
}

void SsdDevice::complete(const IoRequest& req, SimTime submit_time,
                         CompletionFn done) {
  IoResult result;
  result.id = req.id;
  result.op = req.op;
  result.offset = req.offset;
  result.bytes = req.bytes;
  result.submit_time = submit_time;
  result.complete_time = sim_.now();
  done(result);
}

void SsdDevice::submit(const IoRequest& req, CompletionFn done) {
  UC_ASSERT(validate_request(info_, req).is_ok(), "invalid I/O request");
  const SimTime submit_time = sim_.now();
  const Lpn lpn = req.offset / kLogicalPageBytes;
  const auto pages = static_cast<std::uint32_t>(req.bytes / kLogicalPageBytes);

  switch (req.op) {
    case IoOp::kRead: {
      ++io_stats_.reads;
      io_stats_.read_bytes += req.bytes;
      const SimTime fw = firmware_read_.sample(rng_, req.bytes);
      sim_.schedule_after(
          fw, sim::boxed([this, req, lpn, pages, submit_time,
                          done = std::move(done)]() mutable {
            ftl_->read(lpn, pages, [this, req, submit_time,
                                    done = std::move(done)]() mutable {
              // Data moves device -> host once the FTL has it in hand.
              const SimTime tx = device_to_host_.acquire(
                  sim_.now(), units::transfer_ns(req.bytes, host_ns_per_byte_));
              sim_.schedule_at(
                  tx, sim::boxed([this, req, submit_time,
                                  done = std::move(done)]() mutable {
                    complete(req, submit_time, std::move(done));
                  }));
            });
          }));
      break;
    }
    case IoOp::kWrite: {
      ++io_stats_.writes;
      io_stats_.written_bytes += req.bytes;
      const SimTime fw = firmware_write_.sample(rng_, req.bytes);
      // Command processed, then payload crosses the host link, then the FTL
      // acknowledges once all slots are buffered (or backpressure clears).
      const SimTime fw_done = sim_.now() + fw;
      const SimTime tx = host_to_device_.acquire(
          fw_done, units::transfer_ns(req.bytes, host_ns_per_byte_));
      sim_.schedule_at(
          tx, sim::boxed([this, req, lpn, pages, submit_time,
                          done = std::move(done)]() mutable {
            ftl_->write(lpn, pages, [this, req, submit_time,
                                     done = std::move(done)]() mutable {
              complete(req, submit_time, std::move(done));
            });
          }));
      break;
    }
    case IoOp::kFlush: {
      ++io_stats_.flushes;
      ftl_->flush([this, req, submit_time, done = std::move(done)]() mutable {
        complete(req, submit_time, std::move(done));
      });
      break;
    }
    case IoOp::kTrim: {
      ++io_stats_.trims;
      ftl_->trim(lpn, pages);
      const SimTime fw = firmware_write_.sample(rng_, 0);
      sim_.schedule_after(
          fw, sim::boxed([this, req, submit_time,
                          done = std::move(done)]() mutable {
            complete(req, submit_time, std::move(done));
          }));
      break;
    }
  }
}

}  // namespace uc::ssd
