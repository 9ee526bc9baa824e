#ifndef RNTRAJ_NN_RNN_H_
#define RNTRAJ_NN_RNN_H_

#include <vector>

#include "src/nn/init.h"
#include "src/nn/module.h"
#include "src/tensor/fusion.h"
#include "src/tensor/ops.h"

/// \file rnn.h
/// Recurrent cells and sequence wrappers: GRU (paper Eq. (1)), LSTM, and a
/// bidirectional LSTM used by the t2vec baseline.
///
/// Cells operate on row-batches: x is (n, input) and h is (n, hidden), so the
/// same cell both steps a single sequence (n = 1) and advances |V| independent
/// grid sequences at once inside GridGNN (n = |V|).

namespace rntraj {

/// Gated recurrent unit cell (Cho et al., as written in paper Eq. (1)).
class GruCell : public Module {
 public:
  GruCell(int input_size, int hidden_size)
      : input_(input_size), hidden_(hidden_size) {
    wx_ = RegisterParameter("wx", RnnUniform({input_size, 3 * hidden_size},
                                             hidden_size));
    wh_zr_ = RegisterParameter("wh_zr", RnnUniform({hidden_size, 2 * hidden_size},
                                                   hidden_size));
    wh_c_ = RegisterParameter("wh_c", RnnUniform({hidden_size, hidden_size},
                                                 hidden_size));
    bias_ = RegisterParameter("bias", Tensor::Zeros({3 * hidden_size}));
  }

  /// One step: x (n, input), h (n, hidden) -> h' (n, hidden). With a
  /// `row_mask` ((n,1), no grad) row i returns h'_i m_i + h_i (1 - m_i): rows
  /// at m_i = 0 keep their state (finished sequences in a padded batch).
  /// Three GEMMs and two fused elementwise kernels (fusion::GruGates and
  /// fusion::GruOutput).
  Tensor Forward(const Tensor& x, const Tensor& h,
                 const Tensor& row_mask = Tensor()) const {
    Tensor xw = Matmul(x, wx_);                       // (n, 3d)
    Tensor hw = Matmul(h, wh_zr_);                    // (n, 2d)
    fusion::GruGateValues gates = fusion::GruGates(xw, bias_, hw, h);
    Tensor hc = Matmul(gates.rh, wh_c_);              // (n, d)
    return fusion::GruOutput(gates, xw, bias_, hw, hc, h, row_mask);
  }

  int input_size() const { return input_; }
  int hidden_size() const { return hidden_; }

 private:
  int input_;
  int hidden_;
  Tensor wx_;
  Tensor wh_zr_;
  Tensor wh_c_;
  Tensor bias_;
};

/// Long short-term memory cell.
class LstmCell : public Module {
 public:
  LstmCell(int input_size, int hidden_size)
      : input_(input_size), hidden_(hidden_size) {
    wx_ = RegisterParameter("wx", RnnUniform({input_size, 4 * hidden_size},
                                             hidden_size));
    wh_ = RegisterParameter("wh", RnnUniform({hidden_size, 4 * hidden_size},
                                             hidden_size));
    bias_ = RegisterParameter("bias", Tensor::Zeros({4 * hidden_size}));
  }

  struct State {
    Tensor h;
    Tensor c;
  };

  /// One step: x (n, input), state {h, c} each (n, hidden).
  State Forward(const Tensor& x, const State& s) const {
    Tensor gates = Add(Add(Matmul(x, wx_), Matmul(s.h, wh_)), bias_);
    Tensor i = Sigmoid(SliceCols(gates, 0, hidden_));
    Tensor f = Sigmoid(SliceCols(gates, hidden_, hidden_));
    Tensor g = Tanh(SliceCols(gates, 2 * hidden_, hidden_));
    Tensor o = Sigmoid(SliceCols(gates, 3 * hidden_, hidden_));
    Tensor c = Add(Mul(f, s.c), Mul(i, g));
    Tensor h = Mul(o, Tanh(c));
    return {h, c};
  }

  int hidden_size() const { return hidden_; }

 private:
  int input_;
  int hidden_;
  Tensor wx_;
  Tensor wh_;
  Tensor bias_;
};

/// Unidirectional GRU over a sequence laid out as rows.
class Gru : public Module {
 public:
  Gru(int input_size, int hidden_size) : cell_(input_size, hidden_size) {
    RegisterChild("cell", &cell_);
  }

  struct Output {
    Tensor outputs;  ///< (l, hidden): h_t for every step.
    Tensor final_h;  ///< (1, hidden).
  };

  /// x: (l, input); h0: optional (1, hidden) initial state.
  Output Forward(const Tensor& x, const Tensor& h0 = Tensor()) const {
    const int l = x.dim(0);
    Tensor h = h0.defined() ? h0 : Tensor::Zeros({1, cell_.hidden_size()});
    std::vector<Tensor> steps;
    steps.reserve(l);
    for (int t = 0; t < l; ++t) {
      h = cell_.Forward(SliceRows(x, t, 1), h);
      steps.push_back(h);
    }
    return {ConcatRows(steps), h};
  }

  const GruCell& cell() const { return cell_; }

 private:
  GruCell cell_;
};

/// Unidirectional LSTM over a sequence laid out as rows.
class Lstm : public Module {
 public:
  Lstm(int input_size, int hidden_size) : cell_(input_size, hidden_size) {
    RegisterChild("cell", &cell_);
  }

  struct Output {
    Tensor outputs;  ///< (l, hidden).
    LstmCell::State final_state;
  };

  Output Forward(const Tensor& x) const {
    const int l = x.dim(0);
    LstmCell::State s{Tensor::Zeros({1, cell_.hidden_size()}),
                      Tensor::Zeros({1, cell_.hidden_size()})};
    std::vector<Tensor> steps;
    steps.reserve(l);
    for (int t = 0; t < l; ++t) {
      s = cell_.Forward(SliceRows(x, t, 1), s);
      steps.push_back(s.h);
    }
    return {ConcatRows(steps), s};
  }

 private:
  LstmCell cell_;
};

/// Bidirectional LSTM: concatenated forward/backward hidden states (l, 2d).
class BiLstm : public Module {
 public:
  BiLstm(int input_size, int hidden_size)
      : fwd_(input_size, hidden_size), bwd_(input_size, hidden_size) {
    RegisterChild("fwd", &fwd_);
    RegisterChild("bwd", &bwd_);
  }

  Tensor Forward(const Tensor& x) const {
    const int l = x.dim(0);
    Tensor f = fwd_.Forward(x).outputs;
    // Reverse the rows, run, reverse back.
    std::vector<Tensor> rev;
    rev.reserve(l);
    for (int t = l - 1; t >= 0; --t) rev.push_back(SliceRows(x, t, 1));
    Tensor b = bwd_.Forward(ConcatRows(rev)).outputs;
    std::vector<Tensor> unrev;
    unrev.reserve(l);
    for (int t = l - 1; t >= 0; --t) unrev.push_back(SliceRows(b, t, 1));
    return ConcatCols({f, ConcatRows(unrev)});
  }

 private:
  Lstm fwd_;
  Lstm bwd_;
};

}  // namespace rntraj

#endif  // RNTRAJ_NN_RNN_H_
