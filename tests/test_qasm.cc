/**
 * @file
 * Tests for the OpenQASM 2.0 reader and writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <cstdio>
#include <stdexcept>

#include "benchmarks/generators.hh"
#include "circuit/qasm.hh"

namespace
{

using namespace qpad::circuit;

TEST(Qasm, ParsesMinimalProgram)
{
    Circuit c = parseQasm(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[2];\n"
        "creg c[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "measure q[0] -> c[0];\n");
    EXPECT_EQ(c.numQubits(), 2u);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gate(0).kind, GateKind::H);
    EXPECT_EQ(c.gate(1).kind, GateKind::CX);
    EXPECT_EQ(c.gate(2).kind, GateKind::Measure);
}

TEST(Qasm, HeaderAndIncludeOptional)
{
    Circuit c = parseQasm("qreg q[1];\nx q[0];\n");
    EXPECT_EQ(c.size(), 1u);
}

TEST(Qasm, CommentsIgnored)
{
    Circuit c = parseQasm(
        "qreg q[1]; // register\n"
        "// a full-line comment\n"
        "x q[0]; // flip\n");
    EXPECT_EQ(c.size(), 1u);
}

TEST(Qasm, ParameterExpressions)
{
    Circuit c = parseQasm(
        "qreg q[1];\n"
        "rz(pi/2) q[0];\n"
        "rz(-pi/4) q[0];\n"
        "rz(2*pi/8+1) q[0];\n"
        "rz(cos(0)) q[0];\n"
        "rz(2^3) q[0];\n");
    EXPECT_NEAR(c.gate(0).params[0], std::numbers::pi / 2, 1e-12);
    EXPECT_NEAR(c.gate(1).params[0], -std::numbers::pi / 4, 1e-12);
    EXPECT_NEAR(c.gate(2).params[0], std::numbers::pi / 4 + 1, 1e-12);
    EXPECT_NEAR(c.gate(3).params[0], 1.0, 1e-12);
    EXPECT_NEAR(c.gate(4).params[0], 8.0, 1e-12);
}

TEST(Qasm, RegisterBroadcast)
{
    Circuit c = parseQasm(
        "qreg q[3];\n"
        "h q;\n");
    EXPECT_EQ(c.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(c.gate(i).qubits[0], i);
}

TEST(Qasm, BroadcastMeasure)
{
    Circuit c = parseQasm(
        "qreg q[3];\ncreg c[3];\n"
        "measure q -> c;\n");
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gate(2).qubits[0], 2u);
    EXPECT_EQ(c.gate(2).clbit, 2u);
}

TEST(Qasm, MultipleRegistersFlatten)
{
    Circuit c = parseQasm(
        "qreg a[2];\nqreg b[2];\n"
        "cx a[1],b[0];\n");
    EXPECT_EQ(c.numQubits(), 4u);
    EXPECT_EQ(c.gate(0).qubits[0], 1u);
    EXPECT_EQ(c.gate(0).qubits[1], 2u);
}

TEST(Qasm, UserGateDefinitionExpands)
{
    Circuit c = parseQasm(
        "qreg q[2];\n"
        "gate bell a,b { h a; cx a,b; }\n"
        "bell q[0],q[1];\n");
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.gate(0).kind, GateKind::H);
    EXPECT_EQ(c.gate(1).kind, GateKind::CX);
}

TEST(Qasm, ParameterizedGateDefinition)
{
    Circuit c = parseQasm(
        "qreg q[1];\n"
        "gate wiggle(t) a { rz(t/2) a; rz(-t) a; }\n"
        "wiggle(pi) q[0];\n");
    EXPECT_EQ(c.size(), 2u);
    EXPECT_NEAR(c.gate(0).params[0], std::numbers::pi / 2, 1e-12);
    EXPECT_NEAR(c.gate(1).params[0], -std::numbers::pi, 1e-12);
}

TEST(Qasm, NestedGateDefinitions)
{
    Circuit c = parseQasm(
        "qreg q[2];\n"
        "gate inner a { x a; }\n"
        "gate outer a,b { inner a; cx a,b; inner b; }\n"
        "outer q[0],q[1];\n");
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gate(0).kind, GateKind::X);
    EXPECT_EQ(c.gate(2).qubits[0], 1u);
}

TEST(Qasm, BarrierAccepted)
{
    Circuit c = parseQasm("qreg q[2];\nbarrier q;\nx q[0];\n");
    EXPECT_EQ(c.gate(0).kind, GateKind::Barrier);
}

TEST(Qasm, RejectsUnknownGate)
{
    EXPECT_THROW(parseQasm("qreg q[1];\nzork q[0];\n"),
                 std::runtime_error);
}

TEST(Qasm, RejectsOutOfRangeIndex)
{
    EXPECT_THROW(parseQasm("qreg q[2];\nx q[5];\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parseQasm("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[5];\n"),
        std::runtime_error);
    // An index past c's end must not land in the next register.
    EXPECT_THROW(parseQasm("qreg q[1];\ncreg c[1];\ncreg d[2];\n"
                           "measure q[0] -> c[1];\n"),
                 std::runtime_error);
}

TEST(Qasm, RejectsUnknownRegister)
{
    EXPECT_THROW(parseQasm("qreg q[2];\nx r[0];\n"),
                 std::runtime_error);
}

TEST(Qasm, RejectsClassicalControl)
{
    EXPECT_THROW(
        parseQasm("qreg q[1];\ncreg c[1];\nif(c==1) x q[0];\n"),
        std::runtime_error);
}

TEST(Qasm, RejectsDuplicateRegister)
{
    EXPECT_THROW(parseQasm("qreg q[1];\nqreg q[2];\n"),
                 std::runtime_error);
}

TEST(Qasm, RejectsUnterminatedGateBody)
{
    EXPECT_THROW(parseQasm("qreg q[1];\ngate g a { x a;"),
                 std::runtime_error);
    // A barrier cut off at the end of input must not spin forever.
    EXPECT_THROW(parseQasm("qreg q[1];\ngate g a { barrier a"),
                 std::runtime_error);
}

TEST(Qasm, RejectsGateOnEmptyRegister)
{
    EXPECT_THROW(parseQasm("qreg q[0];\nx q;\n"), std::runtime_error);
}

TEST(Qasm, RejectsNonIntegerSizesAndIndices)
{
    // Sizes and indices are OpenQASM 2.0 nnintegers; nothing else is
    // truncated, rounded or read as 0.
    EXPECT_THROW(parseQasm("qreg q[2.5];\n"), std::runtime_error);
    EXPECT_THROW(parseQasm("qreg q[2];\nx q[1.9];\n"),
                 std::runtime_error);
    EXPECT_THROW(parseQasm("qreg q[2];\nx q[foo];\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parseQasm("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[x];\n"),
        std::runtime_error);
    EXPECT_THROW(parseQasm("qreg q[2];\nx q[1e300];\n"),
                 std::runtime_error);
    EXPECT_THROW(parseQasm("qreg q[2];\nx q[01];\n"), std::runtime_error);
}

TEST(Qasm, RejectsMalformedNumbers)
{
    // Every number token must parse whole, and a failure is an input
    // error of the documented type.
    EXPECT_THROW(parseQasm("qreg q[1];\nrz(.) q[0];\n"),
                 std::runtime_error);
    EXPECT_THROW(parseQasm("qreg q[1];\nrz(1e999) q[0];\n"),
                 std::runtime_error);
    EXPECT_THROW(parseQasm("qreg q[1];\nrz(1.2.3) q[0];\n"),
                 std::runtime_error);
    EXPECT_THROW(parseQasm("qreg q[1];\nrz(1e) q[0];\n"),
                 std::runtime_error);
}

TEST(Qasm, RoundTripPreservesCircuit)
{
    Circuit original = qpad::benchmarks::qft(5);
    Circuit reparsed = parseQasm(toQasm(original));
    ASSERT_EQ(reparsed.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(reparsed.gate(i).kind, original.gate(i).kind);
        EXPECT_EQ(reparsed.gate(i).qubits, original.gate(i).qubits);
        ASSERT_EQ(reparsed.gate(i).params.size(),
                  original.gate(i).params.size());
        for (std::size_t p = 0; p < original.gate(i).params.size(); ++p)
            EXPECT_NEAR(reparsed.gate(i).params[p],
                        original.gate(i).params[p], 1e-9);
    }
}

TEST(Qasm, FileRoundTrip)
{
    Circuit original = qpad::benchmarks::ghz(4);
    const std::string path = "/tmp/qpad_test_ghz.qasm";
    writeQasmFile(original, path);
    Circuit loaded = parseQasmFile(path);
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.numQubits(), original.numQubits());
    std::remove(path.c_str());
}

TEST(Qasm, MissingFileFatal)
{
    EXPECT_THROW(parseQasmFile("/nonexistent/nope.qasm"),
                 std::runtime_error);
}

} // namespace
