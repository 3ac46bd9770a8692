#include "device/device_profiles.hh"

#include <type_traits>

#include "sim/logging.hh"

namespace iocost::device {

std::unique_ptr<blk::BlockDevice>
makeDevice(sim::Simulator &sim, const DeviceSpec &spec)
{
    return std::visit(
        [&sim](const auto &s) -> std::unique_ptr<blk::BlockDevice> {
            using Model = typename ModelOf<std::decay_t<decltype(s)>>::type;
            return std::make_unique<Model>(sim, s);
        },
        spec);
}

SsdSpec
oldGenSsd()
{
    SsdSpec s;
    s.name = "oldgen-commercial-ssd";
    s.queueDepth = 128;
    s.channels = 8;
    s.readBaseSeq = 85 * sim::kUsec;
    s.readBaseRand = 95 * sim::kUsec;
    s.writeBaseSeq = 35 * sim::kUsec;
    s.writeBaseRand = 45 * sim::kUsec;
    s.readNsPerByte = 2.4;
    s.writeNsPerByte = 2.0;
    s.jitterSigma = 0.10;
    s.writeBufferBytes = 96ull << 20;
    s.sustainedWriteBps = 220e6;
    s.gcWriteMult = 5.0;
    s.gcReadMult = 3.0;
    return s;
}

SsdSpec
newGenSsd()
{
    SsdSpec s;
    s.name = "newgen-commercial-ssd";
    s.queueDepth = 256;
    s.channels = 24;
    s.readBaseSeq = 80 * sim::kUsec;
    s.readBaseRand = 90 * sim::kUsec;
    s.writeBaseSeq = 25 * sim::kUsec;
    s.writeBaseRand = 32 * sim::kUsec;
    s.readNsPerByte = 2.05;
    s.writeNsPerByte = 1.6;
    s.jitterSigma = 0.08;
    s.writeBufferBytes = 256ull << 20;
    s.sustainedWriteBps = 550e6;
    s.gcWriteMult = 4.0;
    s.gcReadMult = 2.5;
    return s;
}

SsdSpec
enterpriseSsd()
{
    SsdSpec s;
    s.name = "enterprise-ssd";
    s.queueDepth = 1024;
    s.channels = 72;
    s.readBaseSeq = 88 * sim::kUsec;
    s.readBaseRand = 95 * sim::kUsec;
    s.writeBaseSeq = 20 * sim::kUsec;
    s.writeBaseRand = 24 * sim::kUsec;
    s.readNsPerByte = 1.2;
    s.writeNsPerByte = 0.9;
    s.jitterSigma = 0.05;
    s.writeBufferBytes = 1ull << 30;
    s.sustainedWriteBps = 1800e6;
    s.gcWriteMult = 3.0;
    s.gcReadMult = 1.8;
    return s;
}

SsdSpec
fleetSsd(char letter)
{
    // Channels / base latencies chosen so the profiled IOPS-vs-
    // latency scatter matches the paper's qualitative description:
    // H achieves high IOPS at low latency, G offers low IOPS at a
    // relatively low latency, and A moderate IOPS with higher
    // latency; the rest fill the space between.
    struct Row
    {
        uint32_t channels;
        sim::Time read_rand;     // us
        sim::Time write_rand;    // us
        double sustained_mbps;
    };
    static const Row rows[8] = {
        /* A */ {12, 160, 60, 300},
        /* B */ {10, 120, 45, 350},
        /* C */ {16, 140, 55, 420},
        /* D */ {20, 110, 40, 500},
        /* E */ {14, 100, 35, 450},
        /* F */ {24, 105, 38, 600},
        /* G */ {6, 90, 40, 200},
        /* H */ {48, 85, 25, 1200},
    };
    sim::panicIf(letter < 'A' || letter > 'H',
                 "fleetSsd: letter out of range");
    const Row &r = rows[letter - 'A'];

    SsdSpec s;
    s.name = std::string("fleet-ssd-") + letter;
    s.queueDepth = 256;
    s.channels = r.channels;
    s.readBaseRand = r.read_rand * sim::kUsec;
    s.readBaseSeq = r.read_rand * sim::kUsec * 9 / 10;
    s.writeBaseRand = r.write_rand * sim::kUsec;
    s.writeBaseSeq = r.write_rand * sim::kUsec * 8 / 10;
    s.readNsPerByte = 2.0;
    s.writeNsPerByte = 1.6;
    s.jitterSigma = 0.08;
    s.writeBufferBytes = 128ull << 20;
    s.sustainedWriteBps = r.sustained_mbps * 1e6;
    return s;
}

std::vector<SsdSpec>
fleetSsds()
{
    std::vector<SsdSpec> out;
    for (char c = 'A'; c <= 'H'; ++c)
        out.push_back(fleetSsd(c));
    return out;
}

HddSpec
nearlineHdd()
{
    HddSpec h;
    h.name = "nearline-hdd-7200rpm";
    return h;
}

RemoteSpec
awsGp3()
{
    RemoteSpec r;
    r.name = "aws-ebs-gp3-3000iops";
    r.iopsCap = 3000;
    r.bpsCap = 125e6;
    r.baseRtt = 1000 * sim::kUsec;
    r.rttSigma = 0.30;
    return r;
}

RemoteSpec
awsIo2()
{
    RemoteSpec r;
    r.name = "aws-ebs-io2-64000iops";
    r.iopsCap = 64000;
    r.bpsCap = 1000e6;
    r.baseRtt = 500 * sim::kUsec;
    r.rttSigma = 0.20;
    return r;
}

RemoteSpec
gcpBalanced()
{
    RemoteSpec r;
    r.name = "gcp-pd-balanced";
    r.iopsCap = 6000;
    r.bpsCap = 240e6;
    r.baseRtt = 1200 * sim::kUsec;
    r.rttSigma = 0.35;
    return r;
}

RemoteSpec
gcpSsd()
{
    RemoteSpec r;
    r.name = "gcp-pd-ssd";
    r.iopsCap = 30000;
    r.bpsCap = 480e6;
    r.baseRtt = 700 * sim::kUsec;
    r.rttSigma = 0.25;
    return r;
}

std::vector<RemoteSpec>
cloudVolumes()
{
    return {awsGp3(), awsIo2(), gcpBalanced(), gcpSsd()};
}

} // namespace iocost::device
