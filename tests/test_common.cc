/**
 * @file
 * Unit tests for logging and the symmetric matrix.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/sym_matrix.hh"

namespace
{

using qpad::SymMatrix;

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(qpad_panic("boom ", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(qpad_fatal("bad input ", "x"), std::runtime_error);
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(qpad_assert(1 + 1 == 2, "math"));
}

TEST(Logging, AssertThrowsOnFalse)
{
    EXPECT_THROW(qpad_assert(1 + 1 == 3, "math"), std::logic_error);
}

TEST(Logging, PanicPrintsOneErrorLine)
{
    testing::internal::CaptureStderr();
    EXPECT_THROW(qpad_panic("boom ", 42), std::logic_error);
    const std::string text = testing::internal::GetCapturedStderr();
    EXPECT_EQ(text.rfind("[error] log.panic msg=\"boom 42\" at=\"", 0), 0u)
        << text;
    EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
}

TEST(SymMatrix, StoresSymmetrically)
{
    SymMatrix<int> m(5, 0);
    m.at(1, 3) = 42;
    EXPECT_EQ(m(3, 1), 42);
    EXPECT_EQ(m(1, 3), 42);
    m.at(4, 2) = 7;
    EXPECT_EQ(m(2, 4), 7);
}

TEST(SymMatrix, DiagonalIsIndependent)
{
    SymMatrix<int> m(3, 0);
    m.at(0, 0) = 1;
    m.at(1, 1) = 2;
    m.at(2, 2) = 3;
    EXPECT_EQ(m(0, 0), 1);
    EXPECT_EQ(m(1, 1), 2);
    EXPECT_EQ(m(2, 2), 3);
    EXPECT_EQ(m(0, 1), 0);
}

TEST(SymMatrix, FillValue)
{
    SymMatrix<double> m(4, 1.5);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(m(i, j), 1.5);
}

TEST(SymMatrix, RowSumCountsAllColumns)
{
    SymMatrix<int> m(3, 0);
    m.at(0, 1) = 2;
    m.at(0, 2) = 3;
    m.at(0, 0) = 1;
    EXPECT_EQ(m.rowSum(0), 6);
    EXPECT_EQ(m.rowSum(1), 2);
    EXPECT_EQ(m.rowSum(2), 3);
}

TEST(SymMatrix, OffDiagonalSumCountsPairsOnce)
{
    SymMatrix<int> m(3, 0);
    m.at(0, 1) = 2;
    m.at(1, 2) = 3;
    m.at(0, 0) = 100; // diagonal ignored
    EXPECT_EQ(m.offDiagonalSum(), 5);
}

TEST(SymMatrix, EqualityComparesContents)
{
    SymMatrix<int> a(3, 0), b(3, 0);
    EXPECT_TRUE(a == b);
    a.at(1, 2) = 1;
    EXPECT_FALSE(a == b);
    b.at(2, 1) = 1;
    EXPECT_TRUE(a == b);
}

TEST(SymMatrix, OutOfRangePanics)
{
    SymMatrix<int> m(3, 0);
    EXPECT_THROW(m.at(3, 0), std::logic_error);
    EXPECT_THROW(m.at(0, 5), std::logic_error);
}

TEST(SymMatrix, LargeMatrixIndexingConsistent)
{
    const std::size_t n = 50;
    SymMatrix<std::size_t> m(n, 0);
    // Write a unique value per unordered pair, verify nothing clashes.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            m.at(i, j) = i * n + j + 1;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            EXPECT_EQ(m(j, i), i * n + j + 1);
}

} // namespace
