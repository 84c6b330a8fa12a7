#include "host.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/obs.hh"
#include "spans.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/** "32768K" / "105M" style sysfs sizes, in bytes. */
std::uint64_t
parseCacheSize(const std::string &text)
{
    std::uint64_t v = 0;
    std::size_t i = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9')
        v = v * 10 + static_cast<std::uint64_t>(text[i++] - '0');
    if (i < text.size() && (text[i] == 'K' || text[i] == 'k'))
        v <<= 10;
    else if (i < text.size() && (text[i] == 'M' || text[i] == 'm'))
        v <<= 20;
    return v;
}

std::uint64_t
llcBytes()
{
    // Highest cache level listed for cpu0.
    std::uint64_t best = 0;
    for (int idx = 0; idx < 8; idx++) {
        std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                        std::to_string(idx) + "/size");
        std::string text;
        if (!(f >> text))
            break;
        best = std::max(best, parseCacheSize(text));
    }
#ifdef _SC_LEVEL3_CACHE_SIZE
    if (best == 0) {
        const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
        if (l3 > 0)
            best = static_cast<std::uint64_t>(l3);
    }
#endif
    return best;
}

/** Best-of-5 a[i] = b[i] + s*c[i] over `threads` threads, GB/s. */
double
triad(std::uint64_t bytes, unsigned threads, std::uint64_t *footprint)
{
    const std::size_t n = std::max<std::uint64_t>(bytes / 24, 1 << 20);
    *footprint = 24 * n;
    std::unique_ptr<double[]> a(new double[n]);
    std::unique_ptr<double[]> b(new double[n]);
    std::unique_ptr<double[]> c(new double[n]);

    auto parallel = [&](auto &&body) {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; t++) {
            pool.emplace_back([&, t] {
                body(n * t / threads, n * (t + 1) / threads);
            });
        }
        for (std::thread &th : pool)
            th.join();
    };

    // First touch from the same threads that run the kernel.
    parallel([&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; i++) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    const double s = 3.0;
    double best = 1e30;
    for (int rep = 0; rep < 5; rep++) {
        const double t0 = nowSeconds();
        parallel([&](std::size_t lo, std::size_t hi) {
            double *pa = a.get();
            const double *pb = b.get();
            const double *pc = c.get();
            for (std::size_t i = lo; i < hi; i++)
                pa[i] = pb[i] + s * pc[i];
        });
        best = std::min(best, nowSeconds() - t0);
    }
    // Keep the result observable so the kernel is not elided.
    volatile double sink = a[n / 2];
    (void)sink;
    return static_cast<double>(*footprint) / best / 1e9;
}

} // namespace

HostInfo
probeHost(const std::string &commit, std::uint64_t min_triad_bytes)
{
    HostInfo h;
    h.nproc = std::max(1u, std::thread::hardware_concurrency());
    h.buildType = PERFBENCH_BUILD_TYPE;
    h.obs = GRAPHABCD_OBS_ENABLED != 0;
    h.commit = commit;
    h.llcBytes = llcBytes();
    h.triadGBps = triad(std::max(4 * h.llcBytes, min_triad_bytes), h.nproc,
                        &h.triadBytes);
    return h;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {

/** A "Vm...:  1234 kB" line of /proc/self/status, MiB. */
double
statusMb(const std::string &field)
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind(field, 0) == 0) {
            std::istringstream in(line.substr(field.size()));
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

} // namespace

double
peakRssMb()
{
    return statusMb("VmHWM:");
}

double
residentMb()
{
    return statusMb("VmRSS:");
}

bool
resetPeakRss()
{
    // Hand freed heap back first, so the new mark does not depend on
    // how much of the generator's memory the allocator happened to keep.
    malloc_trim(0);
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return static_cast<bool>(f);
}

} // namespace perfbench
