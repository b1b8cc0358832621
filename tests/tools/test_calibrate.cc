/**
 * @file
 * Tests for the calibration harness: the least-squares fitter must recover
 * known coefficients exactly from a noise-free synthetic profile (and
 * within tolerance under noise), the CSV and JSON formats must round-trip,
 * and degenerate/collinear feature columns must be pinned to zero rather
 * than poisoning the solve.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.h"
#include "hw/kernel_coeffs.h"
#include "hw/presets.h"

namespace shiftpar::calibrate {
namespace {

const KernelClassFit*
find_fit(const CalibrationReport& report, const std::string& klass)
{
    for (const auto& f : report.fits)
        if (f.klass == klass)
            return &f;
    return nullptr;
}

hw::KernelCoeffs
h200_coeffs()
{
    const hw::Node node = hw::h200_node();
    return hw::derive_kernel_coeffs(node.gpu, node.link);
}

TEST(Calibrate, NoiseFreeSyntheticRecoversCoefficientsExactly)
{
    const hw::KernelCoeffs truth = h200_coeffs();
    const auto samples = synthesize_profile(truth, 0.0, 42);
    ASSERT_GT(samples.size(), 100u);

    const auto report = fit_profile(samples, "h200", "synthetic");
    EXPECT_EQ(report.total_samples,
              static_cast<std::int64_t>(samples.size()));
    EXPECT_GE(report.overall_r2, 0.99);

    const struct
    {
        const char* klass;
        hw::KernelCoeff expect;
    } cases[] = {{"gemm", truth.gemm},
                 {"attention", truth.attention},
                 {"norm", truth.norm},
                 {"collective", truth.collective}};
    for (const auto& c : cases) {
        const KernelClassFit* fit = find_fit(report, c.klass);
        ASSERT_NE(fit, nullptr) << c.klass;
        EXPECT_NEAR(fit->alpha, c.expect.alpha,
                    1e-6 * c.expect.alpha + 1e-18)
            << c.klass;
        EXPECT_NEAR(fit->beta, c.expect.beta, 1e-6 * c.expect.beta + 1e-24)
            << c.klass;
        EXPECT_NEAR(fit->gamma, c.expect.gamma,
                    1e-6 * c.expect.gamma + 1e-24)
            << c.klass;
        EXPECT_GT(fit->r2, 0.999999) << c.klass;
        EXPECT_LT(fit->resid_p99, 1e-6) << c.klass;
    }
}

TEST(Calibrate, NoisyFitStaysWithinTolerance)
{
    const hw::KernelCoeffs truth = h200_coeffs();
    const auto samples = synthesize_profile(truth, 0.02, 7);
    const auto report = fit_profile(samples, "h200", "synthetic");
    EXPECT_GE(report.overall_r2, 0.99);
    const KernelClassFit* gemm = find_fit(report, "gemm");
    ASSERT_NE(gemm, nullptr);
    EXPECT_NEAR(gemm->beta, truth.gemm.beta, 0.10 * truth.gemm.beta);
    EXPECT_NEAR(gemm->gamma, truth.gemm.gamma, 0.10 * truth.gemm.gamma);
}

TEST(Calibrate, SyntheticNoiseIsDeterministicPerSeed)
{
    const hw::KernelCoeffs truth = h200_coeffs();
    const auto a = synthesize_profile(truth, 0.05, 9);
    const auto b = synthesize_profile(truth, 0.05, 9);
    const auto c = synthesize_profile(truth, 0.05, 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds);
    bool any_differs = false;
    for (std::size_t i = 0; i < a.size() && i < c.size(); ++i)
        any_differs = any_differs || a[i].seconds != c[i].seconds;
    EXPECT_TRUE(any_differs);
}

TEST(Calibrate, ProfileCsvRoundTrips)
{
    const auto samples = synthesize_profile(h200_coeffs(), 0.01, 3);
    const std::string path = ::testing::TempDir() + "calib_profile.csv";
    write_profile_csv(path, samples);
    const auto back = read_profile_csv(path);
    ASSERT_EQ(back.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(back[i].kernel, samples[i].kernel);
        EXPECT_EQ(back[i].klass, samples[i].klass);
        // %.17g formatting round-trips doubles exactly.
        EXPECT_DOUBLE_EQ(back[i].count, samples[i].count);
        EXPECT_DOUBLE_EQ(back[i].flops, samples[i].flops);
        EXPECT_DOUBLE_EQ(back[i].bytes, samples[i].bytes);
        EXPECT_DOUBLE_EQ(back[i].seconds, samples[i].seconds);
    }
}

TEST(Calibrate, ReportRoundTripsThroughCoeffsLoader)
{
    // The emitted shiftpar.calibration v1 document is the same format
    // --kernel-coeffs consumes: writing a fit and loading it back must
    // reproduce the fitted coefficients bit-for-bit.
    const auto samples = synthesize_profile(h200_coeffs(), 0.0, 42);
    const auto report = fit_profile(samples, "h200", "synthetic");

    const std::string path = ::testing::TempDir() + "calibration.json";
    {
        std::ofstream os(path);
        ASSERT_TRUE(os.good());
        write_calibration_report(report, os);
    }
    const hw::KernelCoeffs loaded = hw::load_calibrated_coeffs(path);
    EXPECT_EQ(loaded.hardware, "h200");
    const struct
    {
        const char* klass;
        const hw::KernelCoeff* got;
    } cases[] = {{"gemm", &loaded.gemm},
                 {"attention", &loaded.attention},
                 {"norm", &loaded.norm},
                 {"collective", &loaded.collective}};
    for (const auto& c : cases) {
        const KernelClassFit* fit = find_fit(report, c.klass);
        ASSERT_NE(fit, nullptr) << c.klass;
        EXPECT_DOUBLE_EQ(c.got->alpha, fit->alpha) << c.klass;
        EXPECT_DOUBLE_EQ(c.got->beta, fit->beta) << c.klass;
        EXPECT_DOUBLE_EQ(c.got->gamma, fit->gamma) << c.klass;
    }
}

TEST(Calibrate, ReportJsonCarriesSchemaHeader)
{
    const auto samples = synthesize_profile(h200_coeffs(), 0.0, 1);
    const auto report = fit_profile(samples, "h200", "synthetic");
    std::ostringstream os;
    write_calibration_report(report, os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"shiftpar.calibration\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"kernels\""), std::string::npos);
    EXPECT_NE(doc.find("\"residuals\""), std::string::npos);
    EXPECT_EQ(doc.back(), '\n');
}

TEST(Calibrate, AllZeroColumnIsPinnedToZero)
{
    // bytes is identically zero: gamma must come back exactly 0 and the
    // (count, flops) sub-problem must still be solved exactly.
    std::vector<ProfileSample> samples;
    for (int i = 1; i <= 24; ++i) {
        ProfileSample s;
        s.kernel = "k";
        s.klass = "gemm";
        s.count = static_cast<double>(i % 3 + 1);
        s.flops = 1e12 * i;
        s.bytes = 0.0;
        s.seconds = 3e-6 * s.count + 2e-12 * s.flops;
        samples.push_back(s);
    }
    const auto report = fit_profile(samples, "test", "unit");
    const KernelClassFit* fit = find_fit(report, "gemm");
    ASSERT_NE(fit, nullptr);
    EXPECT_DOUBLE_EQ(fit->gamma, 0.0);
    EXPECT_NEAR(fit->alpha, 3e-6, 1e-12);
    EXPECT_NEAR(fit->beta, 2e-12, 1e-18);
    EXPECT_GT(fit->r2, 0.999999);
}

TEST(Calibrate, CollinearColumnsAreDroppedNotExploded)
{
    // flops == bytes to numerical rank: the solver must drop one column
    // (pinning its coefficient to 0), fold the weight into the other, and
    // still predict every sample exactly.
    std::vector<ProfileSample> samples;
    for (int i = 1; i <= 24; ++i) {
        ProfileSample s;
        s.kernel = "k";
        s.klass = "norm";
        s.count = static_cast<double>(i % 4 + 1);
        s.flops = 5e11 * i;
        s.bytes = s.flops;
        s.seconds = 1e-6 * s.count + 4e-12 * s.flops + 6e-12 * s.bytes;
        samples.push_back(s);
    }
    const auto report = fit_profile(samples, "test", "unit");
    const KernelClassFit* fit = find_fit(report, "norm");
    ASSERT_NE(fit, nullptr);
    EXPECT_TRUE(fit->beta == 0.0 || fit->gamma == 0.0)
        << "beta=" << fit->beta << " gamma=" << fit->gamma;
    EXPECT_NEAR(fit->beta + fit->gamma, 1e-11, 1e-17);
    EXPECT_GT(fit->r2, 0.999999);
    EXPECT_LT(fit->resid_p99, 1e-9);
}

TEST(Calibrate, ClassesAreFitIndependently)
{
    // Two classes with different coefficients in one profile: each fit
    // sees only its own rows.
    std::vector<ProfileSample> samples;
    for (int i = 1; i <= 16; ++i) {
        // bytes varies independently of flops so the columns have rank.
        ProfileSample a{"ka", "gemm", 1.0, 1e12 * i, 1e9 * (i % 5 + 1),
                        0.0};
        a.seconds = 2e-12 * a.flops + 1e-12 * a.bytes + 5e-6;
        ProfileSample b{"kb", "attention", 1.0, 2e12 * i,
                        3e9 * (i % 7 + 1), 0.0};
        b.seconds = 7e-12 * b.flops + 9e-12 * b.bytes + 1e-6;
        samples.push_back(a);
        samples.push_back(b);
    }
    const auto report = fit_profile(samples, "test", "unit");
    ASSERT_EQ(report.fits.size(), 2u);
    // std::map ordering: "attention" before "gemm".
    EXPECT_EQ(report.fits[0].klass, "attention");
    EXPECT_EQ(report.fits[1].klass, "gemm");
    EXPECT_NEAR(report.fits[1].beta, 2e-12, 1e-18);
    EXPECT_NEAR(report.fits[0].beta, 7e-12, 1e-18);
}

/** One malformed calibration document and the error it must produce. */
struct BadCalibration
{
    const char* name;
    std::string json;
    const char* error;  ///< regex: the key named in the fatal message
};

/** A `kernels` entry; `skip` drops a field, `override` replaces one. */
std::string
fit_json(const std::string& klass, const std::string& skip = "",
         const std::string& override_key = "",
         const std::string& override_value = "")
{
    std::string out = "{";
    const char* keys[] = {"class", "alpha", "beta", "gamma"};
    bool first = true;
    for (const char* k : keys) {
        if (skip == k)
            continue;
        std::string value = std::string(k) == "class"
                                 ? "\"" + klass + "\""
                                 : std::string("1e-6");
        if (override_key == k)
            value = override_value;
        out += (first ? "\"" : ", \"") + std::string(k) + "\": " + value;
        first = false;
    }
    return out + "}";
}

std::string
calibration_json(const std::string& header, const std::vector<std::string>& fits)
{
    std::string kernels;
    for (std::size_t i = 0; i < fits.size(); ++i)
        kernels += (i ? ", " : "") + fits[i];
    return "{\"schema\": \"shiftpar.calibration\"" + header +
           ", \"kernels\": [" + kernels + "]}";
}

std::vector<BadCalibration>
bad_calibrations()
{
    const std::vector<std::string> good = {
        fit_json("gemm"), fit_json("attention"), fit_json("norm"),
        fit_json("collective")};
    auto with = [&](std::size_t i, const std::string& fit) {
        auto fits = good;
        fits[i] = fit;
        return calibration_json(", \"version\": 1", fits);
    };
    return {
        {"MissingVersion", calibration_json("", good),
         "missing key 'version'"},
        {"MistypedVersion", calibration_json(", \"version\": \"1\"", good),
         "key 'version' must be a finite number"},
        {"MissingKernels",
         "{\"schema\": \"shiftpar.calibration\", \"version\": 1}",
         "missing key 'kernels'"},
        {"KernelsNotAnArray",
         "{\"schema\": \"shiftpar.calibration\", \"version\": 1, "
         "\"kernels\": {}}",
         "key 'kernels' must be an array"},
        {"MissingClass", with(2, fit_json("norm", "class")),
         "missing key 'kernels\\[2\\]\\.class'"},
        {"MistypedClass", with(0, fit_json("gemm", "", "class", "7")),
         "key 'kernels\\[0\\]\\.class' must be a string"},
        {"MissingAlpha", with(1, fit_json("attention", "alpha")),
         "missing key 'kernels\\[1\\]\\.alpha'"},
        {"MistypedBeta", with(0, fit_json("gemm", "", "beta", "\"x\"")),
         "key 'kernels\\[0\\]\\.beta' must be a finite number"},
        {"MissingGamma", with(3, fit_json("collective", "gamma")),
         "missing key 'kernels\\[3\\]\\.gamma'"},
        {"NonFiniteGamma", with(3, fit_json("collective", "", "gamma", "1e999")),
         "key 'kernels\\[3\\]\\.gamma' must be a finite number"},
    };
}

void
PrintTo(const BadCalibration& bad, std::ostream* os)
{
    *os << bad.name;
}

class CalibrationBoundary : public ::testing::TestWithParam<BadCalibration>
{
};

TEST_P(CalibrationBoundary, FatalNamesFileAndKey)
{
    const BadCalibration& bad = GetParam();
    const std::string path = ::testing::TempDir() + "bad_calibration_" +
                             bad.name + ".json";
    {
        std::ofstream os(path);
        ASSERT_TRUE(os.good());
        os << bad.json;
    }
    EXPECT_DEATH(hw::load_calibrated_coeffs(path),
                 std::string("bad_calibration_") + bad.name +
                     "\\.json': " + bad.error);
}

INSTANTIATE_TEST_SUITE_P(
    LoadCalibratedCoeffs, CalibrationBoundary,
    ::testing::ValuesIn(bad_calibrations()),
    [](const ::testing::TestParamInfo<BadCalibration>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace shiftpar::calibrate
