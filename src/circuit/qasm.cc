#include "circuit/qasm.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace qpad::circuit
{

namespace
{

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/** Parse all of `text` as one T: "1.2.3", "1e", "1e999" and "2.5"
 * (as an integer) fail instead of reading a prefix or overflowing. */
template <class T>
bool
parseWhole(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

enum class TokKind
{
    Ident, Number, String, Symbol, Arrow, End,
};

struct Token
{
    TokKind kind;
    std::string text;
    double value = 0.0;
    int line = 0;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src_(src) { advance(); }

    const Token &peek() const { return tok_; }

    Token
    take()
    {
        Token t = tok_;
        advance();
        return t;
    }

    bool
    accept(const std::string &symbol)
    {
        if (tok_.kind == TokKind::Symbol && tok_.text == symbol) {
            advance();
            return true;
        }
        if (tok_.kind == TokKind::Arrow && symbol == "->") {
            advance();
            return true;
        }
        return false;
    }

    void
    expect(const std::string &symbol)
    {
        if (!accept(symbol))
            qpad_fatal("qasm line ", tok_.line, ": expected '", symbol,
                       "', got '", tok_.text, "'");
    }

    std::string
    expectIdent()
    {
        if (tok_.kind != TokKind::Ident)
            qpad_fatal("qasm line ", tok_.line, ": expected identifier, ",
                       "got '", tok_.text, "'");
        return take().text;
    }

    int line() const { return tok_.line; }

  private:
    const std::string &src_;
    std::size_t pos_ = 0;
    int line_ = 1;
    Token tok_;

    void
    skipSpace()
    {
        while (pos_ < src_.size()) {
            char c = src_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < src_.size() &&
                       src_[pos_ + 1] == '/') {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }

    void
    advance()
    {
        skipSpace();
        tok_.line = line_;
        if (pos_ >= src_.size()) {
            tok_ = {TokKind::End, "<eof>", 0.0, line_};
            return;
        }
        char c = src_[pos_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t start = pos_;
            while (pos_ < src_.size() &&
                   (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
                    src_[pos_] == '_'))
                ++pos_;
            tok_ = {TokKind::Ident, src_.substr(start, pos_ - start), 0.0,
                    line_};
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
            std::size_t start = pos_;
            while (pos_ < src_.size() &&
                   (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
                    src_[pos_] == '.' || src_[pos_] == 'e' ||
                    src_[pos_] == 'E' ||
                    ((src_[pos_] == '+' || src_[pos_] == '-') && pos_ > start &&
                     (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E'))))
                ++pos_;
            std::string text = src_.substr(start, pos_ - start);
            double value = 0.0;
            if (!parseWhole(text, value))
                qpad_fatal("qasm line ", line_, ": bad number '", text,
                           "'");
            tok_ = {TokKind::Number, text, value, line_};
            return;
        }
        if (c == '"') {
            std::size_t start = ++pos_;
            while (pos_ < src_.size() && src_[pos_] != '"')
                ++pos_;
            std::string text = src_.substr(start, pos_ - start);
            if (pos_ < src_.size())
                ++pos_; // closing quote
            tok_ = {TokKind::String, text, 0.0, line_};
            return;
        }
        if (c == '-' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '>') {
            pos_ += 2;
            tok_ = {TokKind::Arrow, "->", 0.0, line_};
            return;
        }
        ++pos_;
        tok_ = {TokKind::Symbol, std::string(1, c), 0.0, line_};
    }
};

// ---------------------------------------------------------------------
// Parameter expressions
// ---------------------------------------------------------------------

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

struct Expr
{
    enum class Op
    {
        Const, Param, Neg, Add, Sub, Mul, Div, Pow,
        Sin, Cos, Tan, Exp, Ln, Sqrt,
    };

    Op op;
    double value = 0.0;   // Const
    std::size_t param = 0; // Param: formal parameter index
    ExprPtr lhs, rhs;

    double
    eval(const std::vector<double> &env) const
    {
        switch (op) {
          case Op::Const: return value;
          case Op::Param:
            qpad_assert(param < env.size(), "qasm param index");
            return env[param];
          case Op::Neg: return -lhs->eval(env);
          case Op::Add: return lhs->eval(env) + rhs->eval(env);
          case Op::Sub: return lhs->eval(env) - rhs->eval(env);
          case Op::Mul: return lhs->eval(env) * rhs->eval(env);
          case Op::Div: return lhs->eval(env) / rhs->eval(env);
          case Op::Pow: return std::pow(lhs->eval(env), rhs->eval(env));
          case Op::Sin: return std::sin(lhs->eval(env));
          case Op::Cos: return std::cos(lhs->eval(env));
          case Op::Tan: return std::tan(lhs->eval(env));
          case Op::Exp: return std::exp(lhs->eval(env));
          case Op::Ln: return std::log(lhs->eval(env));
          case Op::Sqrt: return std::sqrt(lhs->eval(env));
        }
        qpad_panic("unreachable expr op");
    }

    static ExprPtr
    constant(double v)
    {
        auto e = std::make_shared<Expr>();
        e->op = Op::Const;
        e->value = v;
        return e;
    }
};

/** Recursive-descent expression parser over a Lexer. */
class ExprParser
{
  public:
    ExprParser(Lexer &lex, const std::vector<std::string> &params)
        : lex_(lex), params_(params)
    {}

    ExprPtr parse() { return parseAddSub(); }

  private:
    Lexer &lex_;
    const std::vector<std::string> &params_;

    ExprPtr
    parseAddSub()
    {
        ExprPtr lhs = parseMulDiv();
        for (;;) {
            if (lex_.accept("+"))
                lhs = binary(Expr::Op::Add, lhs, parseMulDiv());
            else if (lex_.accept("-"))
                lhs = binary(Expr::Op::Sub, lhs, parseMulDiv());
            else
                return lhs;
        }
    }

    ExprPtr
    parseMulDiv()
    {
        ExprPtr lhs = parseUnary();
        for (;;) {
            if (lex_.accept("*"))
                lhs = binary(Expr::Op::Mul, lhs, parseUnary());
            else if (lex_.accept("/"))
                lhs = binary(Expr::Op::Div, lhs, parseUnary());
            else
                return lhs;
        }
    }

    ExprPtr
    parseUnary()
    {
        if (lex_.accept("-")) {
            auto e = std::make_shared<Expr>();
            e->op = Expr::Op::Neg;
            e->lhs = parseUnary();
            return e;
        }
        if (lex_.accept("+"))
            return parseUnary();
        return parsePow();
    }

    ExprPtr
    parsePow()
    {
        ExprPtr base = parseAtom();
        if (lex_.accept("^"))
            return binary(Expr::Op::Pow, base, parseUnary());
        return base;
    }

    ExprPtr
    parseAtom()
    {
        const Token &t = lex_.peek();
        if (t.kind == TokKind::Number)
            return Expr::constant(lex_.take().value);
        if (t.kind == TokKind::Ident) {
            std::string name = lex_.take().text;
            if (name == "pi")
                return Expr::constant(std::numbers::pi);
            static const std::map<std::string, Expr::Op> funcs = {
                {"sin", Expr::Op::Sin}, {"cos", Expr::Op::Cos},
                {"tan", Expr::Op::Tan}, {"exp", Expr::Op::Exp},
                {"ln", Expr::Op::Ln}, {"sqrt", Expr::Op::Sqrt},
            };
            auto fit = funcs.find(name);
            if (fit != funcs.end()) {
                lex_.expect("(");
                auto e = std::make_shared<Expr>();
                e->op = fit->second;
                e->lhs = parse();
                lex_.expect(")");
                return e;
            }
            for (std::size_t i = 0; i < params_.size(); ++i) {
                if (params_[i] == name) {
                    auto e = std::make_shared<Expr>();
                    e->op = Expr::Op::Param;
                    e->param = i;
                    return e;
                }
            }
            qpad_fatal("qasm line ", t.line, ": unknown name '", name,
                       "' in expression");
        }
        if (lex_.accept("(")) {
            ExprPtr e = parse();
            lex_.expect(")");
            return e;
        }
        qpad_fatal("qasm line ", t.line, ": bad expression token '",
                   t.text, "'");
    }

    static ExprPtr
    binary(Expr::Op op, ExprPtr lhs, ExprPtr rhs)
    {
        auto e = std::make_shared<Expr>();
        e->op = op;
        e->lhs = std::move(lhs);
        e->rhs = std::move(rhs);
        return e;
    }
};

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct RegisterInfo
{
    std::size_t offset;
    std::size_t size;
};

/** One statement inside a user gate definition body. */
struct MacroCall
{
    std::string name;
    std::vector<ExprPtr> params;      // in terms of formal params
    std::vector<std::size_t> qargs;   // formal qubit-arg indices
};

struct GateMacro
{
    std::vector<std::string> params;
    std::vector<std::string> qargs;
    std::vector<MacroCall> body;
};

class Parser
{
  public:
    Parser(const std::string &src, const std::string &name)
        : lex_(src), name_(name)
    {}

    Circuit
    run()
    {
        parseHeader();
        while (lex_.peek().kind != TokKind::End)
            parseStatement();
        Circuit circ(num_qubits_, std::max<std::size_t>(num_clbits_, 1),
                     name_);
        for (auto &g : pending_)
            circ.add(std::move(g));
        return circ;
    }

  private:
    Lexer lex_;
    std::string name_;
    std::map<std::string, RegisterInfo> qregs_;
    std::map<std::string, RegisterInfo> cregs_;
    std::map<std::string, GateMacro> macros_;
    std::size_t num_qubits_ = 0;
    std::size_t num_clbits_ = 0;
    std::vector<Gate> pending_;

    void
    parseHeader()
    {
        if (lex_.peek().kind == TokKind::Ident &&
            lex_.peek().text == "OPENQASM") {
            lex_.take();
            // 2.0 is what toQasm writes; any other version, or a
            // token that is not a number, is a language this parser
            // does not read.
            const Token version = lex_.take();
            if (version.kind != TokKind::Number || version.value != 2.0)
                qpad_fatal("qasm line ", version.line,
                           ": unsupported OPENQASM version '",
                           version.text, "' (expected 2.0)");
            lex_.expect(";");
        }
    }

    void
    parseStatement()
    {
        const Token &t = lex_.peek();
        if (t.kind != TokKind::Ident)
            qpad_fatal("qasm line ", t.line, ": unexpected token '",
                       t.text, "'");
        const std::string &kw = t.text;
        if (kw == "include") {
            lex_.take();
            const Token file = lex_.take();
            if (file.kind != TokKind::String)
                qpad_fatal("qasm line ", file.line,
                           ": expected a quoted file name, got '",
                           file.text, "'");
            lex_.expect(";");
        } else if (kw == "qreg") {
            parseRegDecl(qregs_, num_qubits_);
        } else if (kw == "creg") {
            parseRegDecl(cregs_, num_clbits_);
        } else if (kw == "gate") {
            parseGateDef();
        } else if (kw == "opaque") {
            // Skip to end of statement.
            while (lex_.peek().kind != TokKind::End && !lex_.accept(";"))
                lex_.take();
        } else if (kw == "if") {
            qpad_fatal("qasm line ", t.line,
                       ": classical control is not supported");
        } else if (kw == "measure") {
            parseMeasure();
        } else if (kw == "barrier") {
            parseBarrier();
        } else if (kw == "reset") {
            lex_.take();
            auto targets = parseArg();
            lex_.expect(";");
            for (Qubit q : targets)
                pending_.push_back(Gate(GateKind::Reset, {q}));
        } else {
            parseGateCall();
        }
    }

    void
    parseRegDecl(std::map<std::string, RegisterInfo> &regs,
                 std::size_t &total)
    {
        const int line = lex_.take().line; // qreg / creg
        std::string name = lex_.expectIdent();
        lex_.expect("[");
        const std::size_t size = expectIndex("register size");
        lex_.expect("]");
        lex_.expect(";");
        if (regs.count(name))
            qpad_fatal("qasm: duplicate register '", name, "'");
        // Flat indices are Qubit (and Clbit) values.
        if (size > std::numeric_limits<Qubit>::max() - total)
            qpad_fatal("qasm line ", line, ": register '", name,
                       "' takes the bit count past ",
                       std::numeric_limits<Qubit>::max());
        regs[name] = {total, size};
        total += size;
    }

    /** Read a register size or index: an OpenQASM 2.0 nninteger
     * ([1-9][0-9]* or 0) that fits in a Qubit. */
    Qubit
    expectIndex(const char *what)
    {
        const Token t = lex_.take();
        Qubit value = 0;
        if (t.kind != TokKind::Number || !parseWhole(t.text, value) ||
            (t.text.size() > 1 && t.text[0] == '0'))
            qpad_fatal("qasm line ", t.line, ": bad ", what, " '", t.text,
                       "' (expected an integer from 0 to ",
                       std::numeric_limits<Qubit>::max(), ")");
        return value;
    }

    void
    parseGateDef()
    {
        lex_.take(); // gate
        std::string name = lex_.expectIdent();
        GateMacro macro;
        if (lex_.accept("(")) {
            if (!lex_.accept(")")) {
                macro.params.push_back(lex_.expectIdent());
                while (lex_.accept(","))
                    macro.params.push_back(lex_.expectIdent());
                lex_.expect(")");
            }
        }
        macro.qargs.push_back(lex_.expectIdent());
        while (lex_.accept(","))
            macro.qargs.push_back(lex_.expectIdent());
        lex_.expect("{");
        while (!lex_.accept("}")) {
            if (lex_.peek().kind == TokKind::End)
                qpad_fatal("qasm: unterminated gate body for '", name, "'");
            if (lex_.peek().text == "barrier") {
                // Barriers inside macros are no-ops for our purposes.
                while (lex_.peek().kind != TokKind::End && !lex_.accept(";"))
                    lex_.take();
                continue;
            }
            macro.body.push_back(parseMacroCall(macro));
        }
        macros_[name] = std::move(macro);
    }

    MacroCall
    parseMacroCall(const GateMacro &macro)
    {
        MacroCall call;
        call.name = lex_.expectIdent();
        if (lex_.accept("(")) {
            if (!lex_.accept(")")) {
                ExprParser ep(lex_, macro.params);
                call.params.push_back(ep.parse());
                while (lex_.accept(","))
                    call.params.push_back(ep.parse());
                lex_.expect(")");
            }
        }
        auto arg_index = [&](const std::string &id) {
            for (std::size_t i = 0; i < macro.qargs.size(); ++i)
                if (macro.qargs[i] == id)
                    return i;
            qpad_fatal("qasm line ", lex_.line(), ": unknown qubit arg '",
                       id, "' in gate body");
        };
        call.qargs.push_back(arg_index(lex_.expectIdent()));
        while (lex_.accept(","))
            call.qargs.push_back(arg_index(lex_.expectIdent()));
        lex_.expect(";");
        return call;
    }

    /** Parse `reg` or `reg[k]`; returns flattened qubit indices. */
    std::vector<Qubit>
    parseArg()
    {
        std::string name = lex_.expectIdent();
        auto it = qregs_.find(name);
        if (it == qregs_.end())
            qpad_fatal("qasm line ", lex_.line(), ": unknown qreg '",
                       name, "'");
        const RegisterInfo &reg = it->second;
        if (lex_.accept("[")) {
            const int line = lex_.line();
            const std::size_t k = expectIndex("index");
            lex_.expect("]");
            if (k >= reg.size)
                qpad_fatal("qasm line ", line, ": index ", k,
                           " out of range for qreg '", name, "'");
            return {static_cast<Qubit>(reg.offset + k)};
        }
        std::vector<Qubit> all(reg.size);
        for (std::size_t k = 0; k < reg.size; ++k)
            all[k] = static_cast<Qubit>(reg.offset + k);
        return all;
    }

    std::pair<std::size_t, bool> // (flat index or offset, is_whole_reg)
    parseCArg(std::size_t &size_out)
    {
        std::string name = lex_.expectIdent();
        auto it = cregs_.find(name);
        if (it == cregs_.end())
            qpad_fatal("qasm line ", lex_.line(), ": unknown creg '",
                       name, "'");
        const RegisterInfo &reg = it->second;
        if (lex_.accept("[")) {
            const int line = lex_.line();
            const std::size_t k = expectIndex("index");
            lex_.expect("]");
            if (k >= reg.size)
                qpad_fatal("qasm line ", line, ": index ", k,
                           " out of range for creg '", name, "'");
            size_out = 1;
            return {reg.offset + k, false};
        }
        size_out = reg.size;
        return {reg.offset, true};
    }

    void
    parseMeasure()
    {
        lex_.take(); // measure
        auto qubits = parseArg();
        lex_.expect("->");
        std::size_t csize = 0;
        auto [coffset, whole] = parseCArg(csize);
        lex_.expect(";");
        if (whole && qubits.size() != csize)
            qpad_fatal("qasm: measure register size mismatch");
        for (std::size_t i = 0; i < qubits.size(); ++i) {
            Gate g(GateKind::Measure, {qubits[i]});
            g.clbit = static_cast<Clbit>(coffset + (whole ? i : 0));
            pending_.push_back(std::move(g));
        }
    }

    void
    parseBarrier()
    {
        lex_.take(); // barrier
        // Operands are parsed but a global barrier is recorded; the
        // mapper treats barriers as full synchronization anyway.
        parseArg();
        while (lex_.accept(","))
            parseArg();
        lex_.expect(";");
        Gate g;
        g.kind = GateKind::Barrier;
        pending_.push_back(std::move(g));
    }

    void
    parseGateCall()
    {
        Token name_tok = lex_.take();
        const std::string &name = name_tok.text;
        std::vector<double> params;
        if (lex_.accept("(")) {
            if (!lex_.accept(")")) {
                static const std::vector<std::string> no_formals;
                ExprParser ep(lex_, no_formals);
                params.push_back(ep.parse()->eval({}));
                while (lex_.accept(","))
                    params.push_back(ep.parse()->eval({}));
                lex_.expect(")");
            }
        }
        std::vector<std::vector<Qubit>> args;
        args.push_back(parseArg());
        while (lex_.accept(","))
            args.push_back(parseArg());
        lex_.expect(";");

        // Broadcast: whole registers expand element-wise.
        std::size_t reps = 1;
        for (const auto &a : args) {
            if (a.empty())
                qpad_fatal("qasm line ", name_tok.line, ": gate '", name,
                           "' applied to an empty register");
            if (a.size() > 1) {
                if (reps != 1 && reps != a.size())
                    qpad_fatal("qasm line ", name_tok.line,
                               ": broadcast size mismatch");
                reps = a.size();
            }
        }
        for (std::size_t r = 0; r < reps; ++r) {
            std::vector<Qubit> operands;
            for (const auto &a : args)
                operands.push_back(a.size() == 1 ? a[0] : a[r]);
            emitCall(name, params, operands, name_tok.line);
        }
    }

    void
    emitCall(const std::string &name, const std::vector<double> &params,
             const std::vector<Qubit> &operands, int line, int depth = 0)
    {
        if (depth > 64)
            qpad_fatal("qasm: gate macro recursion too deep at '", name,
                       "'");
        auto mit = macros_.find(name);
        if (mit != macros_.end()) {
            const GateMacro &macro = mit->second;
            if (operands.size() != macro.qargs.size() ||
                params.size() != macro.params.size())
                qpad_fatal("qasm line ", line, ": arity mismatch calling ",
                           "gate '", name, "'");
            for (const MacroCall &call : macro.body) {
                std::vector<double> sub_params;
                sub_params.reserve(call.params.size());
                for (const auto &e : call.params)
                    sub_params.push_back(e->eval(params));
                std::vector<Qubit> sub_ops;
                sub_ops.reserve(call.qargs.size());
                for (std::size_t a : call.qargs)
                    sub_ops.push_back(operands[a]);
                emitCall(call.name, sub_params, sub_ops, line, depth + 1);
            }
            return;
        }
        GateKind kind;
        if (!gateKindFromName(name, kind))
            qpad_fatal("qasm line ", line, ": unknown gate '", name, "'");
        pending_.push_back(Gate(kind, operands, params));
    }
};

} // namespace

Circuit
parseQasm(const std::string &source, const std::string &name)
{
    Parser parser(source, name);
    return parser.run();
}

Circuit
parseQasmFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        qpad_fatal("cannot open qasm file '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string base = path;
    auto slash = base.find_last_of('/');
    if (slash != std::string::npos)
        base = base.substr(slash + 1);
    return parseQasm(buf.str(), base);
}

std::string
toQasm(const Circuit &circuit)
{
    std::ostringstream out;
    out << std::setprecision(17); // round-trip exact doubles
    out << "OPENQASM 2.0;\n";
    out << "include \"qelib1.inc\";\n";
    out << "qreg q[" << circuit.numQubits() << "];\n";
    if (circuit.numClbits() > 0)
        out << "creg c[" << circuit.numClbits() << "];\n";
    for (const auto &g : circuit.gates()) {
        if (g.kind == GateKind::Barrier) {
            out << "barrier q;\n";
            continue;
        }
        if (g.kind == GateKind::Measure) {
            out << "measure q[" << g.qubits[0] << "] -> c[" << g.clbit
                << "];\n";
            continue;
        }
        // qelib1 spells the controlled phase "cu1" and the phase "u1".
        std::string name = gateKindName(g.kind);
        if (g.kind == GateKind::CP)
            name = "cu1";
        else if (g.kind == GateKind::P)
            name = "u1";
        out << name;
        if (!g.params.empty()) {
            out << "(";
            for (std::size_t i = 0; i < g.params.size(); ++i) {
                if (i)
                    out << ",";
                out << g.params[i];
            }
            out << ")";
        }
        for (std::size_t i = 0; i < g.qubits.size(); ++i)
            out << (i ? "," : " ") << "q[" << g.qubits[i] << "]";
        out << ";\n";
    }
    return out.str();
}

void
writeQasmFile(const Circuit &circuit, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        qpad_fatal("cannot write qasm file '", path, "'");
    out << toQasm(circuit);
}

} // namespace qpad::circuit
