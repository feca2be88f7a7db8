#include "core/controller.h"

#include "p4/compiler.h"
#include "util/strings.h"

namespace ndb::core {

Controller::Controller(target::Device& device)
    : device_(device), client_(channel_) {
    channel_.bind([this](const control::Request& req) {
        return control::dispatch(device_, req);
    });
}

control::Status Controller::load_program(std::string_view source, std::string name) {
    try {
        // The compiled program becomes the device's shared image as is.
        return device_.load(p4::compile_source(source, std::move(name)));
    } catch (const util::CompileError& e) {
        return control::Status::failure(e.what());
    }
}

CampaignResult Controller::run(const TestSpec& spec) {
    CampaignResult result;
    result.before = client_.snapshot();

    TestPacketGenerator generator(spec);
    OutputPacketChecker checker(spec);

    result.generator = generator.run(device_);

    // Drain every port and feed the checker in observation order.
    for (int port = 0; port < device_.config().num_ports; ++port) {
        for (const auto& pkt : device_.drain_port(static_cast<std::uint32_t>(port))) {
            checker.observe(pkt, static_cast<std::uint32_t>(port));
        }
    }
    result.check = checker.finalize(result.generator.injected);
    result.after = client_.snapshot();

    const auto delta = result.after.delta_since(result.before);
    result.unaccounted_packets = delta.unaccounted_packets();
    result.misdirected = static_cast<std::int64_t>(delta.misdirected);

    result.passed = result.check.passed;
    result.summary = util::format(
        "%s: %s | injected=%llu observed=%llu violations=%llu unaccounted=%lld "
        "misdirected=%lld",
        spec.name.c_str(), result.passed ? "PASS" : "FAIL",
        static_cast<unsigned long long>(result.generator.injected),
        static_cast<unsigned long long>(result.check.observed),
        static_cast<unsigned long long>(result.check.violations),
        static_cast<long long>(result.unaccounted_packets),
        static_cast<long long>(result.misdirected));
    return result;
}

}  // namespace ndb::core
